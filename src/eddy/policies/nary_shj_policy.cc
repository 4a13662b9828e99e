#include "eddy/policies/nary_shj_policy.h"

#include "engine/policy_registry.h"

namespace stems {

STEMS_REGISTER_POLICY("nary_shj", [](const PolicyParams& p) {
  return std::make_unique<NaryShjPolicy>(p.probe_order);
});

int NaryShjPolicy::ChooseProbeSlot(const Tuple& /*tuple*/,
                                   const std::vector<int>& candidates,
                                   const ProbeStats& /*stats*/) {
  for (int preferred : probe_order_) {
    for (int c : candidates) {
      if (c == preferred) return c;
    }
  }
  int best = candidates.front();
  for (int c : candidates) {
    if (c < best) best = c;
  }
  return best;
}

}  // namespace stems
