#include "core/param_block.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "math/kernels.h"
#include "util/rng.h"

namespace hetps {
namespace {

TEST(ParamBlockTest, DenseByDefaultAndZeroed) {
  ParamBlock b(4);
  EXPECT_FALSE(b.is_sparse());
  EXPECT_EQ(b.dim(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(b.At(i), 0.0);
}

TEST(ParamBlockTest, AddSparseIntoDense) {
  ParamBlock b(5);
  SparseVector u({1, 4}, {2.0, -1.0});
  b.Add(u, 0.5);
  EXPECT_DOUBLE_EQ(b.At(1), 1.0);
  EXPECT_DOUBLE_EQ(b.At(4), -0.5);
  EXPECT_DOUBLE_EQ(b.At(0), 0.0);
}

TEST(ParamBlockTest, AddSparseIntoSparseLayout) {
  ParamBlock b(5, ParamBlock::Layout::kSparse);
  EXPECT_TRUE(b.is_sparse());
  SparseVector u({0, 2}, {1.0, 3.0});
  b.Add(u);
  b.Add(u);
  EXPECT_DOUBLE_EQ(b.At(0), 2.0);
  EXPECT_DOUBLE_EQ(b.At(2), 6.0);
  EXPECT_EQ(b.CountNonZero(), 2u);
}

TEST(ParamBlockDeathTest, AddRangeChecked) {
  ParamBlock b(2);
  SparseVector u({5}, {1.0});
  EXPECT_DEATH(b.Add(u), "out of block range");
}

TEST(ParamBlockTest, AddBlockMixedLayouts) {
  ParamBlock dense(3);
  dense.Set(0, 1.0);
  ParamBlock sparse(3, ParamBlock::Layout::kSparse);
  sparse.Set(2, 4.0);
  dense.AddBlock(sparse, 0.5);
  EXPECT_DOUBLE_EQ(dense.At(2), 2.0);
  sparse.AddBlock(dense, 1.0);
  EXPECT_DOUBLE_EQ(sparse.At(0), 1.0);
  EXPECT_DOUBLE_EQ(sparse.At(2), 6.0);
}

TEST(ParamBlockTest, AddDenseVector) {
  ParamBlock b(3, ParamBlock::Layout::kSparse);
  b.AddDense({1.0, 0.0, -2.0}, 2.0);
  EXPECT_DOUBLE_EQ(b.At(0), 2.0);
  EXPECT_DOUBLE_EQ(b.At(2), -4.0);
  // Zero entries are not materialized in sparse layout.
  EXPECT_EQ(b.CountNonZero(), 2u);
}

TEST(ParamBlockTest, ScaleBothLayouts) {
  for (auto layout :
       {ParamBlock::Layout::kDense, ParamBlock::Layout::kSparse}) {
    ParamBlock b(2, layout);
    b.Set(1, 3.0);
    b.Scale(-2.0);
    EXPECT_DOUBLE_EQ(b.At(1), -6.0);
  }
}

TEST(ParamBlockTest, SetAndClear) {
  ParamBlock b(3, ParamBlock::Layout::kSparse);
  b.Set(1, 5.0);
  EXPECT_DOUBLE_EQ(b.At(1), 5.0);
  b.Set(1, 0.0);  // setting zero erases the sparse entry
  EXPECT_EQ(b.CountNonZero(), 0u);
  b.Set(2, 1.0);
  b.Clear();
  EXPECT_DOUBLE_EQ(b.At(2), 0.0);
}

TEST(ParamBlockTest, CompactLayoutFollowsFiftyPercentRule) {
  ParamBlock b(10);  // dense
  b.Set(0, 1.0);     // 10% non-zero -> sparse preferred
  EXPECT_TRUE(b.CompactLayout());
  EXPECT_TRUE(b.is_sparse());
  // Fill to 60% -> dense preferred.
  for (size_t i = 0; i < 6; ++i) b.Set(i, 1.0);
  EXPECT_TRUE(b.CompactLayout());
  EXPECT_FALSE(b.is_sparse());
  // Stable if already optimal.
  EXPECT_FALSE(b.CompactLayout());
}

TEST(ParamBlockTest, CompactPreservesValues) {
  ParamBlock b(8);
  b.Set(3, 2.5);
  b.Set(7, -1.5);
  b.CompactLayout();
  EXPECT_DOUBLE_EQ(b.At(3), 2.5);
  EXPECT_DOUBLE_EQ(b.At(7), -1.5);
  EXPECT_DOUBLE_EQ(b.At(0), 0.0);
}

TEST(ParamBlockTest, SparseLayoutUsesLessMemoryWhenSparse) {
  ParamBlock dense(1000);
  dense.Set(1, 1.0);
  const size_t dense_bytes = dense.MemoryBytes();
  dense.CompactLayout();
  EXPECT_LT(dense.MemoryBytes(), dense_bytes);
}

TEST(ParamBlockTest, DropSmallEntries) {
  ParamBlock b(4, ParamBlock::Layout::kSparse);
  b.Set(0, 1e-9);
  b.Set(1, 0.5);
  EXPECT_EQ(b.DropSmallEntries(1e-6), 1u);
  EXPECT_EQ(b.CountNonZero(), 1u);
  ParamBlock d(4);
  d.Set(0, 1e-9);
  d.Set(1, 0.5);
  EXPECT_EQ(d.DropSmallEntries(1e-6), 1u);
  EXPECT_DOUBLE_EQ(d.At(0), 0.0);
}

TEST(ParamBlockTest, ToDenseAndToSparseRoundTrip) {
  ParamBlock b(6, ParamBlock::Layout::kSparse);
  b.Set(2, 1.0);
  b.Set(5, -2.0);
  const std::vector<double> dense = b.ToDense();
  EXPECT_DOUBLE_EQ(dense[2], 1.0);
  EXPECT_DOUBLE_EQ(dense[5], -2.0);
  const SparseVector sv = b.ToSparse();
  ASSERT_EQ(sv.nnz(), 2u);
  EXPECT_EQ(sv.index(0), 2);  // sorted
  EXPECT_EQ(sv.index(1), 5);
}

TEST(ParamBlockTest, AddToAccumulates) {
  ParamBlock b(3);
  b.Set(0, 2.0);
  std::vector<double> out = {1.0, 1.0, 1.0};
  b.AddTo(&out, 3.0);
  EXPECT_DOUBLE_EQ(out[0], 7.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
}

// Same bits, except that +0.0 and -0.0 count as equal: a dense slot can
// hold -0.0 (0.0 scaled by a negative) where the sparse layout stores no
// entry at all.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0 || (a == 0.0 && b == 0.0);
}

void ExpectSameContent(const ParamBlock& want, const ParamBlock& got,
                       int step) {
  const std::vector<double> a = want.ToDense();
  const std::vector<double> b = got.ToDense();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(SameBits(a[i], b[i]))
        << "step " << step << " key " << i << ": " << a[i] << " vs "
        << b[i] << " (" << got.DebugString() << ")";
  }
}

SparseVector RandomSparse(Rng* rng, size_t dim, double density) {
  std::vector<int64_t> idx;
  std::vector<double> val;
  for (size_t i = 0; i < dim; ++i) {
    if (rng->NextBernoulli(density)) {
      idx.push_back(static_cast<int64_t>(i));
      val.push_back(rng->NextDouble(-2.0, 2.0));
    }
  }
  return SparseVector(std::move(idx), std::move(val));
}

TEST(ParamBlockTest, SparseLayoutMatchesDenseBitwiseUnderRandomOps) {
  // Every operation must apply the same floating-point arithmetic to each
  // key in either layout. Scalar kernels make the dense side's vector
  // kernels plain loops, so the comparison can be exact.
  kernels::SetKernelIsaForTesting(kernels::KernelIsa::kScalar);
  constexpr size_t kDim = 97;
  Rng rng(2024);
  ParamBlock dense(kDim);
  ParamBlock sparse(kDim, ParamBlock::Layout::kSparse);
  ParamBlock compacted(kDim, ParamBlock::Layout::kSparse);
  ParamBlock* blocks[] = {&dense, &sparse, &compacted};
  for (int step = 0; step < 3000; ++step) {
    const double scale = rng.NextDouble(-1.5, 1.5);
    switch (rng.NextUint64(8)) {
      case 0: {
        const SparseVector u =
            RandomSparse(&rng, kDim, rng.NextDouble(0.0, 0.3));
        for (ParamBlock* b : blocks) b->Add(u, scale);
        break;
      }
      case 1: {
        ParamBlock other(kDim, rng.NextBernoulli(0.5)
                                   ? ParamBlock::Layout::kSparse
                                   : ParamBlock::Layout::kDense);
        other.Add(RandomSparse(&rng, kDim, rng.NextDouble(0.0, 0.8)));
        for (ParamBlock* b : blocks) b->AddBlock(other, scale);
        break;
      }
      case 2: {
        std::vector<double> v(kDim, 0.0);
        for (double& x : v) {
          if (rng.NextBernoulli(0.3)) x = rng.NextDouble(-1.0, 1.0);
        }
        for (ParamBlock* b : blocks) b->AddDense(v, scale);
        break;
      }
      case 3:
        for (ParamBlock* b : blocks) b->Scale(scale);
        break;
      case 4: {
        const size_t i = rng.NextUint64(kDim);
        const double v = rng.NextBernoulli(0.3) ? 0.0 : scale;
        for (ParamBlock* b : blocks) b->Set(i, v);
        break;
      }
      case 5: {
        std::vector<int64_t> idx;
        for (size_t i = 0; i < kDim; ++i) {
          if (rng.NextBernoulli(0.2)) idx.push_back(static_cast<int64_t>(i));
        }
        std::vector<double> want(idx.size());
        std::vector<double> got(idx.size());
        dense.Gather(idx.data(), idx.size(), want.data());
        for (ParamBlock* b : {&sparse, &compacted}) {
          b->Gather(idx.data(), idx.size(), got.data());
          for (size_t k = 0; k < idx.size(); ++k) {
            ASSERT_TRUE(SameBits(want[k], got[k]))
                << "step " << step << " gather key " << idx[k];
          }
        }
        break;
      }
      case 6: {
        const double eps = std::fabs(scale) * 0.05;
        for (ParamBlock* b : blocks) b->DropSmallEntries(eps);
        break;
      }
      case 7:
        compacted.CompactLayout();
        break;
    }
    ExpectSameContent(dense, sparse, step);
    ExpectSameContent(dense, compacted, step);
    EXPECT_EQ(sparse.CountNonZero(), dense.CountNonZero()) << step;
    EXPECT_EQ(sparse.ToSparse(), dense.ToSparse()) << step;
  }
  kernels::ResetKernelIsaForTesting();
}

TEST(ParamBlockTest, SparseMemoryIsSixteenBytesPerEntry) {
  ParamBlock b(1000, ParamBlock::Layout::kSparse);
  b.Add(SparseVector({3, 40, 999}, {1.0, -2.0, 0.5}));
  EXPECT_EQ(b.MemoryBytes(), 3 * (sizeof(int64_t) + sizeof(double)));
  // A cancelled sum stays a stored entry until dropped.
  b.Add(SparseVector({40}, {2.0}));
  EXPECT_EQ(b.MemoryBytes(), 3 * (sizeof(int64_t) + sizeof(double)));
  EXPECT_EQ(b.DropSmallEntries(0.0), 1u);
  EXPECT_EQ(b.MemoryBytes(), 2 * (sizeof(int64_t) + sizeof(double)));
}

TEST(ParamBlockTest, SquaredNorm) {
  ParamBlock b(3, ParamBlock::Layout::kSparse);
  b.Set(0, 3.0);
  b.Set(2, 4.0);
  EXPECT_DOUBLE_EQ(b.SquaredNorm(), 25.0);
}

}  // namespace
}  // namespace hetps
