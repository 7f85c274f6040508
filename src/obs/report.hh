/**
 * @file
 * Self-contained HTML run/campaign reports.
 *
 * Consumes the JSON the simulator already writes — a single-run
 * SimResult::toJson() document or a campaign Report::toJson() document
 * (ideally produced with accounting enabled) plus optional interval
 * CSV time series — and renders one static HTML page: per-cluster and
 * per-strategy stacked cycle-accounting bars, the inter-cluster
 * forwarding heatmap, and IPC-over-time sparklines. The page embeds
 * all styling and SVG inline: no scripts, no external assets, no
 * network fetches, and deterministic bytes for identical inputs.
 */

#ifndef CTCPSIM_OBS_REPORT_HH
#define CTCPSIM_OBS_REPORT_HH

#include <map>
#include <string>
#include <vector>

namespace ctcp::report {

/** One interval time series (from an --interval-stats CSV). */
struct IntervalSeries
{
    std::string label;
    std::vector<double> cycles;
    std::vector<double> ipc;
};

/** One run (a whole single-run report, or one campaign job). */
struct RunView
{
    std::string label;
    std::string benchmark;
    std::string strategy;
    bool ok = true;
    std::string error;

    double cycles = 0.0;
    double instructions = 0.0;
    double ipc = 0.0;

    /** The run's accounting block (empty when it ran without it). */
    std::map<std::string, double> accounting;

    bool hasAccounting() const { return !accounting.empty(); }
};

/** Everything renderHtml() needs, decoded from report JSON. */
struct ReportView
{
    /** Campaign report (vs a bare single-run document). */
    bool campaign = false;
    std::vector<RunView> runs;
    std::vector<IntervalSeries> intervals;
};

/**
 * Decode a report document: either campaign Report::toJson() output
 * (recognized by its "results" array) or a single SimResult::toJson()
 * document.
 * @throws std::runtime_error on malformed input
 */
ReportView fromJsonText(const std::string &text);

/**
 * Decode one IntervalRecorder CSV (needs the "cycle" and "ipc"
 * columns). Each of those cells must be a plain decimal number
 * (ctcp::parseDecimal). A short last row without a newline is a row
 * torn by a writer that stopped mid-line, and is skipped.
 * @throws std::runtime_error naming @p label and the line when the
 *         header lacks either column, a row is short, or a cell is not
 *         a decimal number
 */
IntervalSeries intervalSeriesFromCsv(const std::string &label,
                                     const std::string &csv);

/**
 * Load interval series into @p view from @p path: a single CSV file,
 * or a directory whose *.csv files are loaded in sorted name order
 * (the campaign --interval-stats layout).
 * @throws std::runtime_error when the path does not exist
 */
void loadIntervalSeries(const std::string &path, ReportView &view);

/** Render the full self-contained HTML page. */
std::string renderHtml(const ReportView &view, const std::string &title);

/**
 * One-call render-to-string: decode @p json_text (single-run or
 * campaign report JSON), optionally merge interval series from
 * @p interval_path (file or directory; "" skips), and render the HTML
 * page. This is what ctcpd's GET /v1/runs/<id>/html serves — no file
 * round-trip, deterministic bytes for identical inputs.
 * @throws std::runtime_error on malformed input
 */
std::string renderHtmlFromJson(const std::string &json_text,
                               const std::string &interval_path,
                               const std::string &title);

} // namespace ctcp::report

#endif // CTCPSIM_OBS_REPORT_HH
