#include "storage/migration_policy.h"

namespace ignem {

const MigrationPolicy& upward_on_heat_policy() {
  static const UpwardOnHeatPolicy policy;
  return policy;
}

std::unique_ptr<MigrationPolicy> make_tier_policy(TierPolicyKind kind,
                                                  Duration cold_after) {
  switch (kind) {
    case TierPolicyKind::kUpwardOnHeat:
      return std::make_unique<UpwardOnHeatPolicy>();
    case TierPolicyKind::kDownwardOnCold:
      return std::make_unique<DownwardOnColdPolicy>(cold_after);
    case TierPolicyKind::kWriteBuffer:
      return std::make_unique<WriteBufferPolicy>();
  }
  return std::make_unique<UpwardOnHeatPolicy>();
}

}  // namespace ignem
