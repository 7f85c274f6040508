#include "obs/report.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"
#include "common/parse_number.hh"
#include "obs/accounting.hh"

namespace ctcp::report {

namespace {

// One fixed color per slot category, indexed like SlotCat: useful,
// wait_intra, wait_fwd1/2/3, fu_busy, rs_full, rob_full,
// fetch_tc_miss, fetch_redirect, idle.
const char *const kCatColors[numSlotCats] = {
    "#2f9e44",  // useful        — green
    "#ffd43b",  // wait_intra    — yellow
    "#ffa94d",  // wait_fwd1     — light orange
    "#ff922b",  // wait_fwd2     — orange
    "#e8590c",  // wait_fwd3     — deep orange
    "#9775fa",  // fu_busy       — violet
    "#f06595",  // rs_full       — pink
    "#e64980",  // rob_full      — magenta
    "#74c0fc",  // fetch_tc_miss — light blue
    "#4dabf7",  // fetch_redirect— blue
    "#ced4da",  // idle          — gray
};

std::string
esc(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default:  out += c;
        }
    }
    return out;
}

std::string
fmt(double v, int decimals = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

double
acct(const RunView &run, const std::string &key)
{
    const auto it = run.accounting.find(key);
    return it != run.accounting.end() ? it->second : 0.0;
}

/** Slot counts per category, machine-wide or for one cluster. */
std::vector<double>
slotCounts(const RunView &run, int cluster = -1)
{
    const std::string prefix = cluster < 0
        ? "slots."
        : "cluster" + std::to_string(cluster) + ".slots.";
    std::vector<double> counts(numSlotCats, 0.0);
    for (unsigned k = 0; k < numSlotCats; ++k)
        counts[k] =
            acct(run, prefix + slotCatName(static_cast<SlotCat>(k)));
    return counts;
}

/** One stacked horizontal bar; fractions of @p counts' own total. */
std::string
stackedBar(const std::string &caption, const std::vector<double> &counts)
{
    double total = 0.0;
    for (double c : counts)
        total += c;
    std::string out = "<div class=\"row\"><span class=\"rowlabel\">" +
        esc(caption) + "</span><span class=\"bar\">";
    if (total > 0.0) {
        for (unsigned k = 0; k < numSlotCats; ++k) {
            const double pct = 100.0 * counts[k] / total;
            if (pct < 0.005)
                continue;
            const char *name = slotCatName(static_cast<SlotCat>(k));
            out += "<span class=\"seg\" style=\"width:" + fmt(pct) +
                   "%;background:" + kCatColors[k] + "\" title=\"" +
                   name + ": " + fmt(pct) + "%\"></span>";
        }
    }
    out += "</span></div>\n";
    return out;
}

std::string
legend()
{
    std::string out = "<div class=\"legend\">";
    for (unsigned k = 0; k < numSlotCats; ++k) {
        out += "<span class=\"key\"><span class=\"swatch\" "
               "style=\"background:";
        out += kCatColors[k];
        out += "\"></span>";
        out += slotCatName(static_cast<SlotCat>(k));
        out += "</span> ";
    }
    out += "</div>\n";
    return out;
}

std::string
forwardingHeatmap(const RunView &run)
{
    const int n = static_cast<int>(acct(run, "num_clusters"));
    if (n <= 0)
        return "";
    double peak = 0.0;
    for (int f = 0; f < n; ++f)
        for (int t = 0; t < n; ++t)
            peak = std::max(peak,
                            acct(run, "fwd_matrix." + std::to_string(f) +
                                      "." + std::to_string(t)));
    std::string out = "<table class=\"heat\"><tr><th>from \\ to</th>";
    for (int t = 0; t < n; ++t)
        out += "<th>C" + std::to_string(t) + "</th>";
    out += "</tr>\n";
    for (int f = 0; f < n; ++f) {
        out += "<tr><th>C" + std::to_string(f) + "</th>";
        for (int t = 0; t < n; ++t) {
            const double v =
                acct(run, "fwd_matrix." + std::to_string(f) + "." +
                          std::to_string(t));
            const double alpha = peak > 0.0 ? v / peak : 0.0;
            out += "<td style=\"background:rgba(37,99,235," +
                   fmt(alpha, 3) + ")" +
                   (alpha > 0.6 ? ";color:#fff" : "") + "\">" +
                   fmt(v, 0) + "</td>";
        }
        out += "</tr>\n";
    }
    out += "</table>\n";
    return out;
}

std::string
sparkline(const IntervalSeries &series)
{
    const std::size_t n = series.ipc.size();
    if (n == 0)
        return "";
    double lo = series.ipc[0], hi = series.ipc[0];
    for (double v : series.ipc) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double w = 260.0, h = 44.0, pad = 3.0;
    const double span = hi - lo;
    std::string points;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = n > 1
            ? pad + (w - 2 * pad) * static_cast<double>(i) /
                  static_cast<double>(n - 1)
            : w / 2;
        const double y = span > 0.0
            ? pad + (h - 2 * pad) * (1.0 - (series.ipc[i] - lo) / span)
            : h / 2;
        if (i)
            points += ' ';
        points += fmt(x, 1) + "," + fmt(y, 1);
    }
    std::string out = "<div class=\"row\"><span class=\"rowlabel\">" +
        esc(series.label) + "</span><svg class=\"spark\" width=\"260\" "
        "height=\"44\" viewBox=\"0 0 260 44\">";
    out += n > 1
        ? "<polyline fill=\"none\" stroke=\"#1971c2\" "
          "stroke-width=\"1.5\" points=\"" + points + "\"/>"
        : "<circle cx=\"130\" cy=\"22\" r=\"2\" fill=\"#1971c2\"/>";
    out += "</svg><span class=\"range\">ipc " + fmt(lo) + " … " +
           fmt(hi) + "</span></div>\n";
    return out;
}

RunView
runFromMetricsObject(const json::Value &obj)
{
    RunView run;
    run.benchmark = obj.str("benchmark");
    run.strategy = obj.str("strategy");
    run.cycles = obj.num("cycles");
    run.instructions = obj.num("instructions");
    run.ipc = obj.num("ipc");
    if (const auto a = obj.find("accounting"))
        for (const auto &[name, value] : a->members())
            if (value.isNumber())
                run.accounting[std::string(name)] = value.asNumber();
    return run;
}

} // namespace

ReportView
fromJsonText(const std::string &text)
{
    const json::Document root = json::parse(text);
    if (!root.isObject())
        throw std::runtime_error("report document is not a JSON object");
    ReportView view;
    const auto results = root.find("results");
    if (results && results->isArray()) {
        view.campaign = true;
        for (const json::Value entry : results->items()) {
            if (!entry.isObject())
                throw std::runtime_error(
                    "campaign results entry is not an object");
            RunView run;
            run.label = entry.str("label");
            run.ok = entry.str("status") == "ok";
            if (run.ok) {
                const auto metrics = entry.find("metrics");
                if (!metrics || !metrics->isObject())
                    throw std::runtime_error(
                        "ok job '" + run.label + "' has no metrics");
                RunView decoded = runFromMetricsObject(*metrics);
                decoded.label = run.label;
                decoded.benchmark = entry.str("benchmark");
                run = decoded;
                run.ok = true;
            } else {
                run.benchmark = entry.str("benchmark");
                run.error = entry.str("error");
            }
            view.runs.push_back(std::move(run));
        }
        return view;
    }
    if (!root.find("benchmark"))
        throw std::runtime_error(
            "unrecognized report document (neither a campaign report "
            "nor a single-run result)");
    RunView run = runFromMetricsObject(root);
    run.label = run.benchmark + "/" + run.strategy;
    view.runs.push_back(std::move(run));
    return view;
}

IntervalSeries
intervalSeriesFromCsv(const std::string &label, const std::string &csv)
{
    IntervalSeries series;
    series.label = label;
    std::istringstream in(csv);
    std::string line;
    std::size_t line_no = 0;
    int cycle_col = -1, ipc_col = -1;
    bool header = true;
    const auto fail = [&](const std::string &why) {
        throw std::runtime_error("interval CSV for '" + label + "' line " +
                                 std::to_string(line_no) + ": " + why);
    };
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        std::vector<std::string> cells;
        std::size_t start = 0;
        while (true) {
            const std::size_t comma = line.find(',', start);
            cells.push_back(line.substr(start, comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        if (header) {
            for (std::size_t i = 0; i < cells.size(); ++i) {
                if (cells[i] == "cycle")
                    cycle_col = static_cast<int>(i);
                else if (cells[i] == "ipc")
                    ipc_col = static_cast<int>(i);
            }
            if (cycle_col < 0 || ipc_col < 0)
                fail("no cycle/ipc columns");
            header = false;
            continue;
        }
        const std::size_t need = static_cast<std::size_t>(
            std::max(cycle_col, ipc_col));
        if (cells.size() <= need) {
            // getline hit the end before a newline: a row torn by a
            // writer that stopped mid-line.
            if (in.eof())
                break;
            fail("row has " + std::to_string(cells.size()) + " cells");
        }
        // The writer prints integer cycles and fixed-point values, so
        // a cell that is not a plain decimal number is corruption.
        try {
            series.cycles.push_back(
                parseDecimal(cells[cycle_col], "cycle"));
            series.ipc.push_back(parseDecimal(cells[ipc_col], "ipc"));
        } catch (const std::invalid_argument &e) {
            fail(e.what());
        }
    }
    return series;
}

void
loadIntervalSeries(const std::string &path, ReportView &view)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    if (fs::is_directory(path)) {
        for (const auto &entry : fs::directory_iterator(path))
            if (entry.is_regular_file() &&
                entry.path().extension() == ".csv")
                files.push_back(entry.path());
        std::sort(files.begin(), files.end());
    } else if (fs::exists(path)) {
        files.emplace_back(path);
    } else {
        throw std::runtime_error("interval path '" + path +
                                 "' does not exist");
    }
    for (const fs::path &file : files) {
        std::ifstream in(file);
        std::ostringstream text;
        text << in.rdbuf();
        view.intervals.push_back(
            intervalSeriesFromCsv(file.stem().string(), text.str()));
    }
}

std::string
renderHtml(const ReportView &view, const std::string &title)
{
    std::string out =
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n<title>" + esc(title) + "</title>\n"
        "<style>\n"
        "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;"
        "max-width:72em;padding:0 1em;color:#212529}\n"
        "h1{font-size:1.5em}h2{font-size:1.15em;margin-top:2em;"
        "border-bottom:1px solid #dee2e6;padding-bottom:.2em}\n"
        "table{border-collapse:collapse;margin:.5em 0}\n"
        "td,th{border:1px solid #dee2e6;padding:.25em .6em;"
        "text-align:right}\n"
        "th{background:#f1f3f5}td:first-child,th:first-child"
        "{text-align:left}\n"
        ".bar{display:inline-block;width:34em;height:1.1em;"
        "background:#f8f9fa;border:1px solid #dee2e6;"
        "vertical-align:middle;font-size:0;white-space:nowrap}\n"
        ".seg{display:inline-block;height:100%}\n"
        ".row{margin:.25em 0}\n"
        ".rowlabel{display:inline-block;width:16em;"
        "vertical-align:middle;overflow:hidden;white-space:nowrap;"
        "text-overflow:ellipsis}\n"
        ".legend{margin:.6em 0}\n"
        ".key{margin-right:1em;white-space:nowrap}\n"
        ".swatch{display:inline-block;width:.85em;height:.85em;"
        "margin-right:.3em;vertical-align:-.1em;"
        "border:1px solid #adb5bd}\n"
        ".heat td{min-width:3.5em}\n"
        ".spark{vertical-align:middle;background:#f8f9fa;"
        "border:1px solid #dee2e6}\n"
        ".range{margin-left:.75em;color:#868e96}\n"
        ".err{color:#c92a2a}\n"
        "</style>\n</head>\n<body>\n";
    out += "<h1>" + esc(title) + "</h1>\n";

    // ---- Overview -----------------------------------------------------
    out += "<h2>Runs</h2>\n<table>\n"
           "<tr><th>label</th><th>benchmark</th><th>strategy</th>"
           "<th>status</th><th>cycles</th><th>instructions</th>"
           "<th>IPC</th></tr>\n";
    for (const RunView &run : view.runs) {
        out += "<tr><td>" + esc(run.label) + "</td><td>" +
               esc(run.benchmark) + "</td><td>" + esc(run.strategy) +
               "</td>";
        if (run.ok) {
            out += "<td>ok</td><td>" + fmt(run.cycles, 0) + "</td><td>" +
                   fmt(run.instructions, 0) + "</td><td>" +
                   fmt(run.ipc, 4) + "</td>";
        } else {
            out += "<td class=\"err\">failed: " + esc(run.error) +
                   "</td><td></td><td></td><td></td>";
        }
        out += "</tr>\n";
    }
    out += "</table>\n";

    // ---- Cycle accounting ---------------------------------------------
    bool any_acct = false;
    for (const RunView &run : view.runs)
        any_acct = any_acct || (run.ok && run.hasAccounting());
    if (any_acct) {
        out += "<h2>Cycle accounting (issue-slot attribution)</h2>\n";
        out += legend();
        for (const RunView &run : view.runs) {
            if (!run.ok || !run.hasAccounting())
                continue;
            out += "<h3>" + esc(run.label) + "</h3>\n";
            out += stackedBar("machine", slotCounts(run));
            const int n = static_cast<int>(acct(run, "num_clusters"));
            for (int c = 0; c < n; ++c)
                out += stackedBar("cluster " + std::to_string(c),
                                  slotCounts(run, c));
        }

        // Per-strategy aggregate: slot counts summed across the ok
        // runs of each strategy (first-appearance order).
        std::vector<std::string> strategies;
        for (const RunView &run : view.runs) {
            if (!run.ok || !run.hasAccounting())
                continue;
            if (std::find(strategies.begin(), strategies.end(),
                          run.strategy) == strategies.end())
                strategies.push_back(run.strategy);
        }
        if (view.campaign && strategies.size() > 1) {
            out += "<h3>By strategy (all benchmarks pooled)</h3>\n";
            for (const std::string &strategy : strategies) {
                std::vector<double> pooled(numSlotCats, 0.0);
                for (const RunView &run : view.runs) {
                    if (!run.ok || run.strategy != strategy ||
                        !run.hasAccounting())
                        continue;
                    const std::vector<double> counts = slotCounts(run);
                    for (unsigned k = 0; k < numSlotCats; ++k)
                        pooled[k] += counts[k];
                }
                out += stackedBar(strategy, pooled);
            }
        }

        out += "<h2>Inter-cluster forwarding (producer &rarr; "
               "consumer values)</h2>\n";
        for (const RunView &run : view.runs) {
            if (!run.ok || !run.hasAccounting())
                continue;
            out += "<h3>" + esc(run.label) + "</h3>\n";
            out += forwardingHeatmap(run);
        }
    }

    // ---- IPC over time ------------------------------------------------
    if (!view.intervals.empty()) {
        out += "<h2>IPC over time (interval stats)</h2>\n";
        for (const IntervalSeries &series : view.intervals)
            out += sparkline(series);
    }

    out += "</body>\n</html>\n";
    return out;
}

std::string
renderHtmlFromJson(const std::string &json_text,
                   const std::string &interval_path,
                   const std::string &title)
{
    ReportView view = fromJsonText(json_text);
    if (!interval_path.empty())
        loadIntervalSeries(interval_path, view);
    return renderHtml(view, title);
}

} // namespace ctcp::report
