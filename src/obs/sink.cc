#include "obs/sink.hh"

#include <numeric>
#include <stdexcept>

#include "common/logging.hh"

namespace ctcp {

const char *
obsKindName(ObsKind kind)
{
    switch (kind) {
      case ObsKind::Fetch:      return "fetch";
      case ObsKind::TcHit:      return "tc-hit";
      case ObsKind::TcMiss:     return "tc-miss";
      case ObsKind::TraceBuild: return "trace-build";
      case ObsKind::Assign:     return "assign";
      case ObsKind::Rename:     return "rename";
      case ObsKind::Issue:      return "issue";
      case ObsKind::Execute:    return "execute";
      case ObsKind::Forward:    return "forward";
      case ObsKind::Complete:   return "complete";
      case ObsKind::Retire:     return "retire";
      case ObsKind::Flush:      return "flush";
      case ObsKind::Mem:        return "mem";
      case ObsKind::Snapshot:   return "snapshot";
      case ObsKind::NumKinds:   break;
    }
    return "unknown";
}

ObsSink::ObsSink(std::unique_ptr<ObsWriter> writer)
    : writer_(std::move(writer))
{
    writer_->begin();
}

ObsSink::~ObsSink()
{
    // Reached without finish() when the run threw. A destructor must
    // not throw, so report a trace that could not be published; the
    // previous file at its path stays (AtomicFile).
    try {
        finish();
    } catch (const std::exception &e) {
        ctcp_warn("event trace not published: %s", e.what());
    }
}

std::uint32_t
ObsSink::parseFilter(const std::string &spec)
{
    if (spec.empty() || spec == "all")
        return allKinds();
    std::uint32_t mask = 0;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string name = spec.substr(start, end - start);
        bool found = false;
        for (unsigned k = 0; k < numObsKinds; ++k) {
            if (name == obsKindName(static_cast<ObsKind>(k))) {
                mask |= 1u << k;
                found = true;
                break;
            }
        }
        if (!found) {
            // Build the valid-kind list from the name table itself, so
            // the message can never drift from the actual taxonomy.
            std::string kinds;
            for (unsigned k = 0; k < numObsKinds; ++k) {
                if (k)
                    kinds += ", ";
                kinds += obsKindName(static_cast<ObsKind>(k));
            }
            throw std::invalid_argument(
                "unknown trace event kind '" + name + "' (kinds: " +
                kinds + ")");
        }
        start = end + 1;
        if (end == spec.size())
            break;
    }
    return mask;
}

void
ObsSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    writer_->end();
}

std::uint64_t
ObsSink::recorded() const
{
    return std::accumulate(recordedPerKind_,
                           recordedPerKind_ + numObsKinds,
                           std::uint64_t{0});
}

} // namespace ctcp
