/**
 * @file
 * Crash-safe campaign checkpointing: an append-only JSONL journal of
 * completed job outcomes.
 *
 * Every finished job (ok or failed) is appended as one self-contained
 * JSON line and flushed immediately, so a killed campaign loses at
 * most the jobs that were still in flight. On restart with the same
 * journal path, recorded outcomes are replayed into their submission
 * slots and only the remaining jobs run — the final report is
 * byte-identical to an uninterrupted run.
 *
 * The format tolerates a crash mid-append: a partial or corrupt
 * trailing line fails to decode and is skipped on load (that job
 * simply re-runs). Records whose index or label does not match the
 * campaign being resumed are ignored with a warning, so a stale
 * journal cannot inject foreign results.
 */

#ifndef CTCPSIM_CAMPAIGN_JOURNAL_HH
#define CTCPSIM_CAMPAIGN_JOURNAL_HH

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.hh"

namespace ctcp::campaign {

/** One journal entry: a completed outcome and its submission index. */
struct JournalRecord
{
    std::size_t index = 0;
    JobOutcome outcome;
};

/**
 * Serialize one completed job as a single newline-terminated JSON
 * line. Doubles round-trip exactly (%.17g), so a replayed SimResult
 * reproduces the original report bytes.
 */
std::string encodeJournalRecord(std::size_t index,
                                const JobOutcome &outcome);

/**
 * Parse one journal line. Members it does not read are ignored, so
 * records from older builds, which also carried the run's stats text
 * as "statsText", still decode. @return false (leaving @p record
 * untouched) when the line is truncated or corrupt.
 */
bool decodeJournalRecord(const std::string &line, JournalRecord &record);

/**
 * Load every decodable record from @p path. A missing file yields an
 * empty vector (fresh campaign); undecodable lines are skipped.
 */
std::vector<JournalRecord> loadJournal(const std::string &path);

/**
 * Tail-read the journal as a stream of complete records: returns the
 * bytes of every newline-terminated line starting at byte @p offset
 * verbatim (newlines included) and sets @p next to the offset just
 * past the last complete line, i.e. the @p offset to pass on the next
 * call. A torn trailing line (append in progress, or a crash
 * mid-write) is never consumed, so readers only ever see whole
 * records; a missing file or an offset at or past the last newline
 * yields "" and next == offset.
 *
 * This is the wire format of ctcpd's GET /v1/runs/<id>/events
 * endpoint: the journal bytes ARE the event stream, so a client that
 * concatenates every chunk it receives holds exactly the journal —
 * and can decode it with decodeJournalRecord line by line.
 */
std::string readJournalTail(const std::string &path, std::uint64_t offset,
                            std::uint64_t &next);

/** What mergeJournalFiles() did with its inputs. */
struct MergeResult
{
    std::size_t merged = 0;     ///< records written to the output
    std::size_t duplicates = 0; ///< dropped, slot already merged
    std::size_t mismatched = 0; ///< dropped, index/label not in campaign
    std::vector<std::size_t> missingSlots; ///< jobs with no record
};

/**
 * Merge the journals of one campaign's `slots=` subsets (the
 * ctcp_merge core). Every record of @p inputs that belongs to @p jobs
 * — the full, unsliced expansion, indexed by campaign-wide slot — is
 * written to a fresh journal at @p outPath, first complete record per
 * slot winning in file order. Replaying that journal through
 * runCampaign() yields the merged report; missingSlots lists what such
 * a replay would re-run.
 * @throws SimError (Config) when @p outPath cannot be written
 */
MergeResult mergeJournalFiles(const std::vector<std::string> &inputs,
                              const std::vector<Job> &jobs,
                              const std::string &outPath);

/** Compress sorted slot indices into a slots= value ("0-3,7,9-10"). */
std::string formatSlotRanges(const std::vector<std::size_t> &slots);

/** Appends records to the journal file; safe from worker threads. */
class JournalWriter
{
  public:
    /**
     * Opens @p path for appending (existing records are preserved —
     * that is the resume contract). A torn last line, the bytes after
     * the last newline that a crash mid-append leaves, is cut off
     * first, with a warning naming how many bytes were dropped.
     * @throws SimError (category Config) when the file cannot be opened
     */
    explicit JournalWriter(std::string path);
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Append one outcome and flush it to the OS before returning. */
    void append(std::size_t index, const JobOutcome &outcome);

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
};

} // namespace ctcp::campaign

#endif // CTCPSIM_CAMPAIGN_JOURNAL_HH
