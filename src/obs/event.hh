/**
 * @file
 * Typed pipeline events for the observability subsystem.
 *
 * Every instrumented component (fetch engine, trace cache, fill unit,
 * assignment policy, clusters, memory system, retire logic) describes
 * what happened as an ObsEvent and hands it to the ObsSink. Events are
 * plain data: a cycle stamp, a kind, the instruction identity when one
 * is involved, and a small kind-specific payload. The Chrome trace
 * writer (obs/writers.hh) interprets the payload per kind.
 *
 * Payload conventions:
 *   Fetch       seq/pc/label; arg0 = 1 when fetched from the trace cache
 *   TcHit       pc = trace start PC; arg0 = instructions in the line
 *   TcMiss      pc = trace start PC
 *   TraceBuild  pc = trace start PC; arg0 = instructions; arg1 = blocks
 *   Assign      pc; opt = Table-5 option ('A'..'E', 'S'); cluster chosen
 *   Rename      seq/pc
 *   Issue       seq/pc/cluster
 *   Execute     seq/pc/cluster/label; begin = dispatch cycle; dur = latency
 *   Forward     seq/pc/cluster = consumer; arg0 = hop count;
 *               arg1 = producer cluster
 *   Complete    seq/pc/cluster
 *   Retire      seq/pc/cluster
 *   Flush       seq/pc of the mispredicted branch; arg0 = fetch resume cycle
 *   Mem         arg0 = byte address; arg1 = service level (0 = store
 *               forward, 1 = L1, 2 = L2, 3 = memory); dur = load latency
 *   Snapshot    pipeline-state dump before a watchdog abort; label names
 *               the structure ("rob", "fetch-queue", ...), arg0 = its
 *               occupancy, arg1 = structure-specific detail
 */

#ifndef CTCPSIM_OBS_EVENT_HH
#define CTCPSIM_OBS_EVENT_HH

#include <cstdint>
#include <string_view>

#include "common/types.hh"

namespace ctcp {

/** Kinds of pipeline events the sink can record. */
enum class ObsKind : std::uint8_t
{
    Fetch = 0,
    TcHit,
    TcMiss,
    TraceBuild,
    Assign,
    Rename,
    Issue,
    Execute,
    Forward,
    Complete,
    Retire,
    Flush,
    Mem,
    Snapshot,
    NumKinds,
};

inline constexpr unsigned numObsKinds =
    static_cast<unsigned>(ObsKind::NumKinds);

/** Stable lower-case name of an event kind (used in filters and output). */
const char *obsKindName(ObsKind kind);

/** One recorded pipeline event. */
struct ObsEvent
{
    Cycle cycle = 0;                   ///< emission cycle
    ObsKind kind = ObsKind::Fetch;
    ClusterId cluster = invalidCluster;
    char opt = 0;                      ///< Assign: Table-5 option letter
    InstSeqNum seq = invalidSeqNum;    ///< instruction, when one is involved
    Addr pc = 0;
    std::int64_t arg0 = 0;             ///< kind-specific (see file comment)
    std::int64_t arg1 = 0;
    Cycle begin = 0;                   ///< span start (Execute)
    Cycle dur = 0;                     ///< span duration / access latency
    /** Display label; must point at static storage (e.g. a mnemonic). */
    std::string_view label;
};

} // namespace ctcp

#endif // CTCPSIM_OBS_EVENT_HH
