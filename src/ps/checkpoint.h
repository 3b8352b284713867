#ifndef HETPS_PS_CHECKPOINT_H_
#define HETPS_PS_CHECKPOINT_H_

#include <string>

#include "ps/parameter_server.h"
#include "util/status.h"

namespace hetps {

/// Failure recovery for the master and the parameter servers (Appendix D:
/// "master and parameter server can recover from the last check point,
/// while worker restarts and pulls the latest parameter from the PS").
///
/// A checkpoint captures the full mutable server-side state: every
/// partition's parameter block and consolidation-rule state (DynSGD's
/// multi-version store included), the clock table, and the master's
/// partition versions. Worker replicas are deliberately NOT captured —
/// restarted workers re-pull.
///
/// The file (header "hetps-checkpoint v2") also records the key layout:
/// the partition scheme and, for the range schemes, the P+1 cut points.
/// Restore requires a ParameterServer constructed with the same shape
/// (dim, workers, partition count, rule type) and the same key layout;
/// a mismatch, like a v1 file, is InvalidArgument and leaves the server
/// untouched.
Status SaveCheckpointToFile(const ParameterServer& ps,
                            const std::string& path);
Status RestoreCheckpointFromFile(ParameterServer* ps,
                                 const std::string& path);

}  // namespace hetps

#endif  // HETPS_PS_CHECKPOINT_H_
