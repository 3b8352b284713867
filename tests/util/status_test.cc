#include "util/status.h"

#include <gtest/gtest.h>

namespace hetps {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad x");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad x");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad x");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_TRUE(Status::NotFound("").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("").IsFailedPrecondition());
  EXPECT_TRUE(Status::Aborted("").IsAborted());
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotSupported("").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAborted), "Aborted");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultDeathTest, ValueOfErrorAbortsWithTheStatusMessage) {
  // Reading the value of an error Result stops the program with the
  // status message instead of dereferencing an empty optional.
  Result<int> r = Status::NotFound("missing");
  EXPECT_DEATH((void)r.value(), "Result::value\\(\\) on error: "
                                "NotFound: missing");
  EXPECT_DEATH((void)*r, "NotFound: missing");
  EXPECT_DEATH((void)std::move(r).value(), "NotFound: missing");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status Helper(bool fail) {
  HETPS_RETURN_NOT_OK(fail ? Status::Aborted("inner") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Helper(false).ok());
  EXPECT_TRUE(Helper(true).IsAborted());
}

}  // namespace
}  // namespace hetps
