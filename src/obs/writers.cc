#include "obs/writers.hh"

namespace ctcp {

namespace {

/** Chrome trace track for an event kind. */
int
tidFor(const ObsEvent &event)
{
    switch (event.kind) {
      case ObsKind::Complete:
      case ObsKind::Retire:
        return 1;
      case ObsKind::Mem:
        return 2;
      case ObsKind::Issue:
      case ObsKind::Execute:
      case ObsKind::Forward:
        return event.cluster == invalidCluster
            ? 0 : 10 + static_cast<int>(event.cluster);
      default:
        return 0;
    }
}

/** obsKindName(), with each name's length measured once. */
std::string_view
kindName(ObsKind kind)
{
    static const auto names = [] {
        std::array<std::string_view, numObsKinds + 1> out;
        for (unsigned k = 0; k <= numObsKinds; ++k)
            out[k] = obsKindName(static_cast<ObsKind>(k));
        return out;
    }();
    return names[static_cast<std::size_t>(kind)];
}

} // namespace

TraceBuffer::TraceBuffer(const std::string &path)
    : out_(path), buf_(new char[capacity]), cur_(buf_.get()),
      end_(buf_.get() + capacity)
{
}

void
TraceBuffer::drain()
{
    out_.write(buf_.get(), static_cast<std::size_t>(cur_ - buf_.get()));
    cur_ = buf_.get();
}

void
TraceBuffer::spill(std::string_view text)
{
    drain();
    if (text.size() > capacity)
        out_.write(text.data(), text.size());
    else
        cur_ = std::copy(text.begin(), text.end(), cur_);
}

void
TraceBuffer::commit()
{
    drain();
    out_.commit();
}

ChromeTraceWriter::ChromeTraceWriter(const std::string &path) : out_(path)
{
}

ChromeTraceWriter::~ChromeTraceWriter()
{
    // Publish the trace even when the simulation threw: end() writes
    // the trailer first, so the committed file is always well-formed.
    // Only an unclean process death (SIGKILL, crash) skips this, and
    // then the uncommitted .tmp leaves the old target untouched.
    try {
        end();
    } catch (...) {
        // Commit failure during unwind: keep the previous trace.
    }
}

void
ChromeTraceWriter::begin()
{
    out_.put("{\"traceEvents\":[\n"
             "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
             "\"args\":{\"name\":\"ctcpsim\"}}");
}

void
ChromeTraceWriter::nameThread(int tid)
{
    bool &named = namedTids_[static_cast<std::uint8_t>(tid)];
    if (named)
        return;
    named = true;
    out_.put(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":");
    out_.dec(tid);
    out_.put(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    if (tid == 0) {
        out_.put("frontend");
    } else if (tid == 1) {
        out_.put("commit");
    } else if (tid == 2) {
        out_.put("memory");
    } else {
        out_.put("cluster ");
        out_.dec(tid - 10);
    }
    // Sort tracks in pipeline order rather than alphabetically.
    out_.put("\"}},\n{\"ph\":\"M\",\"pid\":1,\"tid\":");
    out_.dec(tid);
    out_.put(",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":");
    out_.dec(tid);
    out_.put("}}");
}

void
ChromeTraceWriter::write(const ObsEvent &event)
{
    const int tid = tidFor(event);
    nameThread(tid);

    const std::string_view kind = kindName(event.kind);
    if (event.kind == ObsKind::Execute) {
        // Duration slice: one "X" event spanning dispatch..complete.
        out_.put(",\n{\"ph\":\"X\",\"pid\":1,\"tid\":");
        out_.dec(tid);
        out_.put(",\"ts\":");
        out_.dec(event.begin);
        out_.put(",\"dur\":");
        out_.dec(event.dur ? event.dur : 1);
        out_.put(",\"name\":\"");
        out_.put(event.label);
    } else {
        out_.put(",\n{\"ph\":\"i\",\"pid\":1,\"tid\":");
        out_.dec(tid);
        out_.put(",\"ts\":");
        out_.dec(event.cycle);
        out_.put(",\"s\":\"t\",\"name\":\"");
        out_.put(kind);
    }
    out_.put("\",\"cat\":\"");
    out_.put(kind);
    out_.put("\",\"args\":{");

    // Each present field after the first is preceded by a comma.
    bool first = true;
    auto field = [&](std::string_view key) {
        if (!first)
            out_.put(',');
        first = false;
        out_.put(key);
    };
    if (event.seq != invalidSeqNum) {
        field("\"seq\":");
        out_.dec(event.seq);
    }
    if (event.pc) {
        field("\"pc\":");
        out_.dec(event.pc);
    }
    if (event.cluster != invalidCluster) {
        field("\"cluster\":");
        out_.dec(static_cast<int>(event.cluster));
    }
    if (event.opt) {
        field("\"option\":\"");
        out_.put(event.opt);
        out_.put('"');
    }
    if (event.arg0) {
        field("\"arg0\":");
        out_.dec(event.arg0);
    }
    if (event.arg1) {
        field("\"arg1\":");
        out_.dec(event.arg1);
    }
    if (!event.label.empty() && event.kind != ObsKind::Execute) {
        field("\"op\":\"");
        out_.put(event.label);
        out_.put('"');
    }
    out_.put("}}");
}

void
ChromeTraceWriter::end()
{
    if (ended_)
        return;
    ended_ = true;
    out_.put("\n]}\n");
    out_.commit();
}

ObsTextWriter::ObsTextWriter(const std::string &path) : out_(path)
{
}

ObsTextWriter::~ObsTextWriter()
{
    try {
        end();
    } catch (...) {
        // Commit failure during unwind: keep the previous trace.
    }
}

void
ObsTextWriter::write(const ObsEvent &event)
{
    out_.dec(event.cycle);
    out_.put(' ');
    out_.put(kindName(event.kind));
    if (event.seq != invalidSeqNum) {
        out_.put(" seq=");
        out_.dec(event.seq);
    }
    if (event.pc) {
        out_.put(" pc=0x");
        out_.hex(event.pc);
    }
    if (event.cluster != invalidCluster) {
        out_.put(" cl=");
        out_.dec(static_cast<int>(event.cluster));
    }
    if (event.opt) {
        out_.put(" opt=");
        out_.put(event.opt);
    }
    if (!event.label.empty()) {
        out_.put(" op=");
        out_.put(event.label);
    }
    switch (event.kind) {
      case ObsKind::Fetch:
        if (event.arg0)
            out_.put(" from=tc");
        break;
      case ObsKind::TcHit:
      case ObsKind::TraceBuild:
        out_.put(" insts=");
        out_.dec(event.arg0);
        if (event.kind == ObsKind::TraceBuild) {
            out_.put(" blocks=");
            out_.dec(event.arg1);
        }
        break;
      case ObsKind::Execute:
        out_.put(" begin=");
        out_.dec(event.begin);
        out_.put(" dur=");
        out_.dec(event.dur);
        break;
      case ObsKind::Forward:
        out_.put(" hops=");
        out_.dec(event.arg0);
        out_.put(" from_cl=");
        out_.dec(event.arg1);
        break;
      case ObsKind::Flush:
        out_.put(" resume=");
        out_.dec(event.arg0);
        break;
      case ObsKind::Mem:
        out_.put(" addr=0x");
        out_.hex(static_cast<std::uint64_t>(event.arg0));
        out_.put(" level=");
        out_.dec(event.arg1);
        out_.put(" lat=");
        out_.dec(event.dur);
        break;
      default:
        break;
    }
    out_.put('\n');
}

void
ObsTextWriter::end()
{
    if (ended_)
        return;
    ended_ = true;
    out_.commit();
}

} // namespace ctcp
