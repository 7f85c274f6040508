/**
 * @file
 * ctcp_merge — merge the journals of a sharded campaign.
 *
 * A campaign is sharded by giving each host the same spec plus a
 * `slots=` clause naming its share of the campaign-wide job indices
 * (`ctcpsim --campaign ... --journal`, or `ctcpctl submit` to that
 * host's ctcpd). Every journal record carries its campaign-wide slot
 * index, so this tool takes the unsliced spec plus any number of such
 * journals, merges them by slot index (first complete record wins,
 * file order decides ties) through campaign::mergeJournalFiles, and
 * replays the merged journal into the aggregated report —
 * byte-identical to `ctcpsim --campaign` over the same spec.
 *
 * Slots no journal covers (a lost host) are reported missing, or run
 * locally with --run-missing. A host that was killed can instead be
 * rerun with its own journal, which resumes where it stopped.
 *
 * Cycle accounting follows the journals: when their successful records
 * carry an accounting block (the halves ran with --accounting), the
 * report exports it and --run-missing runs with it, as `ctcpsim
 * --campaign --accounting` would. Journals that mix accounted and
 * unaccounted records are a config error.
 *
 * Exit status: 0 report complete and every job ok, 1 jobs failed or
 * slots missing (unless --run-missing), 2 usage/config errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "campaign/matrix.hh"
#include "common/sim_error.hh"

namespace {

void
usage(const char *prog)
{
    std::printf(
        "usage: %s --campaign SPEC --merged FILE [options] "
        "JOURNAL...\n"
        "\n"
        "Merge the journals of slots= subsets of one campaign into one\n"
        "resumable journal at FILE and print the aggregated report.\n"
        "The report carries cycle accounting when the journals do.\n"
        "\n"
        "options:\n"
        "  --campaign SPEC   campaign matrix spec (required)\n"
        "  --merged FILE     merged journal output path (required)\n"
        "  --out FILE        report destination (default stdout)\n"
        "  --csv             CSV report instead of JSON\n"
        "  --run-missing     execute slots no journal covers locally\n"
        "                    instead of reporting them missing\n"
        "  --jobs N          worker threads for --run-missing; accepts\n"
        "                    the same values as ctcpsim --jobs\n"
        "\n"
        "exit status: 0 complete and all ok, 1 failed jobs or missing\n"
        "slots, 2 usage/config\n",
        prog);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "ctcp_merge: %s\n", msg.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec, merged_path, out_path = "-";
    bool csv = false, run_missing = false;
    unsigned jobs = 0;
    std::vector<std::string> inputs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--campaign" && i + 1 < argc) {
            spec = argv[++i];
        } else if (arg == "--merged" && i + 1 < argc) {
            merged_path = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--run-missing") {
            run_missing = true;
        } else if (arg == "--jobs" && i + 1 < argc) {
            // Same parser, bounds, and messages as ctcpsim --jobs.
            try {
                jobs = ctcp::campaign::parseWorkerCount(argv[++i]);
            } catch (const std::invalid_argument &e) {
                die(e.what());
            }
        } else if (!arg.empty() && arg[0] == '-') {
            die("unknown option '" + arg + "'");
        } else {
            inputs.push_back(arg);
        }
    }
    if (spec.empty())
        die("--campaign SPEC is required");
    if (merged_path.empty())
        die("--merged FILE is required");
    if (inputs.empty())
        die("at least one journal file is required");

    try {
        const std::vector<ctcp::campaign::Job> all =
            ctcp::campaign::parseMatrix(spec);

        const ctcp::campaign::MergeResult merge =
            ctcp::campaign::mergeJournalFiles(inputs, all, merged_path);
        std::fprintf(stderr,
                     "ctcp_merge: %zu merged, %zu duplicate(s), %zu "
                     "mismatched record(s)\n",
                     merge.merged, merge.duplicates, merge.mismatched);
        if (!merge.missingSlots.empty())
            std::fprintf(
                stderr, "ctcp_merge: missing slot(s): %s%s\n",
                ctcp::campaign::formatSlotRanges(merge.missingSlots)
                    .c_str(),
                run_missing ? " (running locally)" : "");
        std::size_t ok = 0, accounted = 0;
        for (const ctcp::campaign::JournalRecord &rec :
             ctcp::campaign::loadJournal(merged_path)) {
            ok += rec.outcome.ok();
            accounted += !rec.outcome.result.accounting.empty();
        }
        if (accounted != 0 && accounted != ok)
            die("journals mix records with and without cycle accounting "
                "(" + std::to_string(accounted) + " of " +
                std::to_string(ok) + " ok records have it)");
        if (!merge.missingSlots.empty() && !run_missing)
            return 1;

        // A complete journal replays without executing anything.
        ctcp::campaign::Options options;
        options.journalPath = merged_path;
        options.jobs = jobs;
        options.accounting = accounted != 0;
        const ctcp::campaign::Report report =
            ctcp::campaign::runCampaign(all, options);

        const std::string body = csv
            ? report.toCsv(options.accounting)
            : report.toJson(false, options.accounting);
        if (out_path.empty() || out_path == "-") {
            std::fwrite(body.data(), 1, body.size(), stdout);
        } else {
            std::ofstream out(out_path, std::ios::binary);
            out.write(body.data(),
                      static_cast<std::streamsize>(body.size()));
            out.close();
            if (!out)
                die("cannot write " + out_path);
        }
        return report.failed() == 0 ? 0 : 1;
    } catch (const ctcp::SimError &e) {
        die(e.what());
    } catch (const std::exception &e) {
        die(e.what());
    }
}
