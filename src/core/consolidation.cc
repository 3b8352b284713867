#include "core/consolidation.h"

#include "core/dyn_sgd.h"
#include "util/logging.h"

namespace hetps {

void ConsolidationRule::OnPull(int worker, int cmax) {
  (void)worker;
  (void)cmax;
}

std::vector<double> ConsolidationRule::Materialize(
    const ParamBlock& w) const {
  return w.ToDense();
}

std::vector<double> ConsolidationRule::MaterializeAtVersion(
    const ParamBlock& w, int64_t version) const {
  (void)version;
  return Materialize(w);
}

void ConsolidationRule::GatherMaterialized(const ParamBlock& w,
                                           const int64_t* indices, size_t n,
                                           double* out) const {
  w.Gather(indices, n, out);
}

size_t ConsolidationRule::CountNonZeroMaterializedAt(const ParamBlock& w,
                                                     const int64_t* indices,
                                                     size_t n) const {
  return w.CountNonZeroAt(indices, n);
}

void ConsolidationRule::AppendStateKeys(std::vector<int64_t>* keys) const {
  (void)keys;
}

Status ConsolidationRule::SaveState(std::ostream& os) const {
  os << "stateless\n";
  return os ? Status::OK() : Status::IOError("checkpoint write failed");
}

Status ConsolidationRule::LoadState(std::istream& is) {
  std::string tag;
  if (!(is >> tag) || tag != "stateless") {
    return Status::IOError("bad stateless-rule checkpoint tag: " + tag);
  }
  return Status::OK();
}

void SspRule::Reset(size_t dim, int num_workers) {
  (void)dim;
  (void)num_workers;
}

void SspRule::OnPush(int worker, int clock, const SparseVector& update,
                     ParamBlock* w) {
  (void)worker;
  (void)clock;
  w->Add(update);
}

std::unique_ptr<ConsolidationRule> SspRule::Clone() const {
  return std::make_unique<SspRule>();
}

ConRule::ConRule(double lambda_g)
    : use_inverse_m_(false), lambda_g_(lambda_g) {
  HETPS_CHECK(lambda_g > 0.0 && lambda_g <= 1.0)
      << "lambda_g must be in (0, 1]";
}

void ConRule::Reset(size_t dim, int num_workers) {
  (void)dim;
  HETPS_CHECK(num_workers > 0) << "need at least one worker";
  if (use_inverse_m_) {
    lambda_g_ = 1.0 / static_cast<double>(num_workers);
  }
}

void ConRule::OnPush(int worker, int clock, const SparseVector& update,
                     ParamBlock* w) {
  (void)worker;
  (void)clock;
  w->Add(update, lambda_g_);
}

std::unique_ptr<ConsolidationRule> ConRule::Clone() const {
  auto clone = std::make_unique<ConRule>();
  clone->use_inverse_m_ = use_inverse_m_;
  clone->lambda_g_ = lambda_g_;
  return clone;
}

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> names = {"ssp", "con", "dyn"};
  return names;
}

std::unique_ptr<ConsolidationRule> MakeConsolidationRule(
    const std::string& name) {
  if (name == "ssp") return std::make_unique<SspRule>();
  if (name == "con") return std::make_unique<ConRule>();
  if (name == "dyn") return std::make_unique<DynSgdRule>();
  HETPS_LOG(Fatal) << "unknown consolidation rule: " << name;
  return nullptr;
}

}  // namespace hetps
