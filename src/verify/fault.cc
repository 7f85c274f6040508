#include "verify/fault.hh"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/simulator.hh"
#include "tracecache/trace_cache.hh"

namespace ctcp::verify {

bool
FaultInjector::corruptReadyAt(CtcpSimulator &sim, std::uint64_t seed)
{
    std::vector<TimedInst *> resident;
    for (Cluster &cluster : sim.clusters_)
        for (TimedInst *inst = cluster.ready_.head; inst != nullptr;
             inst = inst->schedNext)
            resident.push_back(inst);
    if (resident.empty())
        return false;
    TimedInst *victim = resident[seed % resident.size()];
    victim->readyAt += 1 + seed % 7;
    return true;
}

bool
FaultInjector::scrambleTraceLine(CtcpSimulator &sim)
{
    TraceCache &tc = *sim.tc_;
    TraceLine *victim = nullptr;
    tc.forEachLine([&](TraceLine &line) {
        if (line.valid && line.insts.size() >= 2 &&
            (victim == nullptr || line.lastUse > victim->lastUse))
            victim = &line;
    });
    if (victim == nullptr)
        return false;
    victim->insts[1].physSlot = victim->insts[0].physSlot;
    return true;
}

bool
FaultInjector::strandIssueEntry(CtcpSimulator &sim)
{
    if (!sim.issueQueue_.empty()) {
        sim.clusterQueues_.front().push_back(sim.issueQueue_.back());
        sim.issueQueue_.pop_back();
        return true;
    }
    for (auto &queue : sim.clusterQueues_) {
        if (queue.empty())
            continue;
        sim.issueQueue_.push_back(queue.back());
        queue.pop_back();
        return true;
    }
    return false;
}

void
FaultInjector::stallRetirement(CtcpSimulator &sim, bool stalled)
{
    sim.faultStallRetire_ = stalled;
}

bool
FaultInjector::truncateFileTail(const std::string &path, std::size_t bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return false;
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    if (size < 0 || static_cast<std::size_t>(size) < bytes) {
        std::fclose(file);
        return false;
    }
    const std::size_t keep = static_cast<std::size_t>(size) - bytes;
    std::vector<char> head(keep);
    std::fseek(file, 0, SEEK_SET);
    const std::size_t got = keep ? std::fread(head.data(), 1, keep, file)
                                 : 0;
    std::fclose(file);
    if (got != keep)
        return false;
    std::FILE *out = std::fopen(path.c_str(), "wb");
    if (!out)
        return false;
    if (keep)
        std::fwrite(head.data(), 1, keep, out);
    std::fclose(out);
    return true;
}

std::function<Program()>
flakyBuilder(unsigned failures, std::function<Program()> inner)
{
    auto remaining = std::make_shared<unsigned>(failures);
    return [remaining, inner = std::move(inner)]() -> Program {
        if (*remaining > 0) {
            --*remaining;
            throw std::runtime_error("injected builder fault");
        }
        return inner();
    };
}

} // namespace ctcp::verify
