#ifndef HETPS_TESTS_PS_RULE_CASES_H_
#define HETPS_TESTS_PS_RULE_CASES_H_

// Every consolidation rule a parameterized PS test should cover: SSPSGD,
// CONSGD and the three DynSGD variants.

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"

namespace hetps {

struct RuleCase {
  std::string name;
  std::function<std::unique_ptr<ConsolidationRule>()> make;
};

// Test listings print the rule's name, not the bytes of the factory.
inline void PrintTo(const RuleCase& c, std::ostream* os) { *os << c.name; }

inline std::unique_ptr<ConsolidationRule> MakeDyn(
    DynSgdRule::VersionMode mode, DynSgdRule::ApplyMode apply) {
  DynSgdRule::Options options;
  options.version_mode = mode;
  options.mode = apply;
  return std::make_unique<DynSgdRule>(options);
}

// Deferred DynSGD without partition sync serves live reads that add the
// active version summaries to w, so its gathered ships are covered too.
inline const RuleCase kRuleCases[] = {
    {"Ssp", [] { return std::make_unique<SspRule>(); }},
    {"Con", [] { return std::make_unique<ConRule>(); }},
    {"DynClockAligned",
     [] {
       return MakeDyn(DynSgdRule::VersionMode::kClockAligned,
                      DynSgdRule::ApplyMode::kImmediate);
     }},
    {"DynAlgorithm2",
     [] {
       return MakeDyn(DynSgdRule::VersionMode::kAlgorithm2,
                      DynSgdRule::ApplyMode::kImmediate);
     }},
    {"DynDeferred",
     [] {
       return MakeDyn(DynSgdRule::VersionMode::kClockAligned,
                      DynSgdRule::ApplyMode::kDeferred);
     }},
};

}  // namespace hetps

#endif  // HETPS_TESTS_PS_RULE_CASES_H_
