/**
 * @file
 * HTML report and regression-comparator tests.
 *
 * In-process: report JSON decoding (campaign and single-run),
 * interval CSV decoding, HTML self-containment and determinism, and
 * the comparator's tolerance/structural semantics. End-to-end: the
 * ctcpsim --report flow plus the ctcp_report / ctcp_compare binaries'
 * exit-code contract (0 match, 1 drift with a delta table, 2 usage),
 * which CI gates on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "obs/compare.hh"
#include "obs/report.hh"
#include "tmp_dir.hh"

namespace ctcp {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << path;
}

/** Run a shell command; return its exit status (-1 on signal). */
int
runCmd(const std::string &cmd)
{
    const int rc = std::system((cmd + " >/dev/null 2>&1").c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

int
runCmdCapture(const std::string &cmd, std::string &out)
{
    const std::string path = test::tmpPath("report_capture.txt");
    const int rc =
        std::system((cmd + " >" + path + " 2>/dev/null").c_str());
    out = slurp(path);
    std::remove(path.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

const char *campaignJson = R"({
  "campaign": { "jobs": 2, "failed": 1 },
  "results": [
    {
      "label": "gzip/base",
      "benchmark": "gzip",
      "status": "ok",
      "metrics": {
        "benchmark": "gzip",
        "strategy": "base",
        "cycles": 1000,
        "instructions": 2000,
        "ipc": 2.0,
        "accounting": {
          "cycles": 1000.0,
          "num_clusters": 2.0,
          "cluster_width": 2.0,
          "slots.total": 4000.0,
          "slots.useful": 2000.0,
          "slots.wait_fwd1": 1000.0,
          "slots.idle": 1000.0,
          "cluster0.slots.useful": 1000.0,
          "cluster1.slots.useful": 1000.0,
          "fwd_matrix.0.0": 5.0,
          "fwd_matrix.0.1": 7.0,
          "fwd_matrix.1.0": 3.0,
          "fwd_matrix.1.1": 9.0
        }
      }
    },
    {
      "label": "gzip/fdrt",
      "benchmark": "gzip",
      "status": "failed",
      "category": "timeout",
      "attempts": 2,
      "error": "deadline exceeded"
    }
  ]
})";

// --- Decoding --------------------------------------------------------------

TEST(ReportDecode, CampaignDocument)
{
    const report::ReportView view = report::fromJsonText(campaignJson);
    EXPECT_TRUE(view.campaign);
    ASSERT_EQ(view.runs.size(), 2u);
    EXPECT_EQ(view.runs[0].label, "gzip/base");
    EXPECT_TRUE(view.runs[0].ok);
    EXPECT_EQ(view.runs[0].strategy, "base");
    EXPECT_EQ(view.runs[0].cycles, 1000.0);
    EXPECT_EQ(view.runs[0].ipc, 2.0);
    EXPECT_EQ(view.runs[0].accounting.at("slots.useful"), 2000.0);
    EXPECT_FALSE(view.runs[1].ok);
    EXPECT_EQ(view.runs[1].error, "deadline exceeded");
}

TEST(ReportDecode, SingleRunDocument)
{
    const report::ReportView view = report::fromJsonText(R"({
      "benchmark": "twolf",
      "strategy": "fdrt",
      "cycles": 500.0,
      "instructions": 600.0,
      "ipc": 1.2
    })");
    EXPECT_FALSE(view.campaign);
    ASSERT_EQ(view.runs.size(), 1u);
    EXPECT_EQ(view.runs[0].label, "twolf/fdrt");
    EXPECT_FALSE(view.runs[0].hasAccounting());
}

TEST(ReportDecode, MalformedInputThrows)
{
    EXPECT_THROW(report::fromJsonText("not json"), std::exception);
    EXPECT_THROW(report::fromJsonText("[1, 2]"), std::exception);
    EXPECT_THROW(report::fromJsonText(R"({"no": "markers"})"),
                 std::exception);
}

TEST(ReportDecode, IntervalCsv)
{
    const report::IntervalSeries s = report::intervalSeriesFromCsv(
        "gzip", "cycle,ipc,occupancy\n1000,1.500000,3.0\n"
                "2000,1.750000,3.5\n");
    EXPECT_EQ(s.label, "gzip");
    ASSERT_EQ(s.ipc.size(), 2u);
    EXPECT_EQ(s.cycles[1], 2000.0);
    EXPECT_EQ(s.ipc[1], 1.75);
    EXPECT_THROW(report::intervalSeriesFromCsv("x", "a,b\n1,2\n"),
                 std::exception);
    // A row torn by a writer that stopped mid-line is skipped.
    EXPECT_EQ(report::intervalSeriesFromCsv(
                  "gzip", "cycle,ipc,occupancy\n1000,1.5,3\n2000")
                  .ipc.size(),
              1u);
}

TEST(ReportDecode, IntervalCsvRejectsBadCells)
{
    // Each cell must be a plain decimal number: junk, a sign, an
    // exponent, nan or inf would otherwise reach the sparkline.
    for (const char *bad : {"abc", "nan", "inf", "-1", "1e3", "", "1.5x"}) {
        const std::string csv = std::string("cycle,ipc\n1000,1.5\n") +
            "2000," + bad + "\n3000,1.25\n";
        try {
            report::intervalSeriesFromCsv("gzip/fdrt", csv);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "interval CSV for 'gzip/fdrt' line 3: "),
                      std::string::npos)
                << e.what();
        }
    }
    // A short row with rows after it is corruption, not a torn tail.
    EXPECT_THROW(report::intervalSeriesFromCsv(
                     "x", "cycle,ipc\n1000\n2000,1.5\n"),
                 std::runtime_error);
}

// --- Rendering -------------------------------------------------------------

TEST(ReportHtml, SelfContainedAndDeterministic)
{
    report::ReportView view = report::fromJsonText(campaignJson);
    report::IntervalSeries series;
    series.label = "gzip/base";
    series.cycles = {1000, 2000, 3000};
    series.ipc = {1.5, 1.75, 1.6};
    view.intervals.push_back(series);

    const std::string html = report::renderHtml(view, "test report");
    // Self-contained: no scripts, no external fetches of any kind.
    EXPECT_EQ(html.find("<script"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("src="), std::string::npos);
    EXPECT_EQ(html.find("@import"), std::string::npos);
    // The content is actually there.
    EXPECT_NE(html.find("gzip/base"), std::string::npos);
    EXPECT_NE(html.find("failed: deadline exceeded"),
              std::string::npos);
    EXPECT_NE(html.find("wait_fwd1"), std::string::npos);
    EXPECT_NE(html.find("<polyline"), std::string::npos);
    EXPECT_NE(html.find("class=\"heat\""), std::string::npos);
    // Deterministic bytes for identical input.
    EXPECT_EQ(html, report::renderHtml(view, "test report"));
}

TEST(ReportHtml, EscapesLabels)
{
    report::ReportView view;
    report::RunView run;
    run.label = "a<b>&\"c";
    run.ok = false;
    run.error = "<script>alert(1)</script>";
    view.runs.push_back(run);
    const std::string html = report::renderHtml(view, "t");
    EXPECT_EQ(html.find("<script>alert"), std::string::npos);
    EXPECT_NE(html.find("a&lt;b&gt;&amp;&quot;c"), std::string::npos);
}

// --- Comparator ------------------------------------------------------------

TEST(Compare, IdenticalReportsMatch)
{
    const report::ReportView a = report::fromJsonText(campaignJson);
    const report::Comparison cmp =
        report::compareReports(a, a, report::Tolerances{});
    EXPECT_TRUE(cmp.ok());
    EXPECT_TRUE(cmp.deltas.empty());
    EXPECT_EQ(report::renderDeltaTable(cmp), "reports match.\n");
}

TEST(Compare, DriftDetectedAndTolerable)
{
    const report::ReportView a = report::fromJsonText(campaignJson);
    report::ReportView b = a;
    b.runs[0].ipc = 2.1;                       // ~4.76% drift
    b.runs[0].accounting["slots.idle"] = 990;  // 1% drift

    report::Tolerances exact;
    report::Comparison cmp = report::compareReports(a, b, exact);
    EXPECT_FALSE(cmp.ok());
    EXPECT_EQ(cmp.violations(), 2u);
    const std::string table = report::renderDeltaTable(cmp);
    EXPECT_NE(table.find("ipc"), std::string::npos);
    EXPECT_NE(table.find("slots.idle"), std::string::npos);
    EXPECT_NE(table.find("FAIL"), std::string::npos);

    report::Tolerances loose;
    loose.defaultRelPct = 2.0;             // covers idle, not ipc
    cmp = report::compareReports(a, b, loose);
    EXPECT_EQ(cmp.violations(), 1u);
    loose.perMetric["ipc"] = 5.0;
    cmp = report::compareReports(a, b, loose);
    EXPECT_TRUE(cmp.ok());
    EXPECT_EQ(cmp.deltas.size(), 2u);      // still reported, within tol
}

TEST(Compare, StructuralFindings)
{
    const report::ReportView a = report::fromJsonText(campaignJson);

    report::ReportView missing = a;
    missing.runs.pop_back();
    report::Comparison cmp =
        report::compareReports(a, missing, report::Tolerances{});
    EXPECT_FALSE(cmp.ok());
    ASSERT_EQ(cmp.structural.size(), 1u);
    EXPECT_NE(cmp.structural[0].find("gzip/fdrt"), std::string::npos);

    report::ReportView flipped = a;
    flipped.runs[1].ok = true;
    cmp = report::compareReports(a, flipped, report::Tolerances{});
    EXPECT_FALSE(cmp.ok());

    report::ReportView pruned = a;
    pruned.runs[0].accounting.erase("slots.idle");
    cmp = report::compareReports(a, pruned, report::Tolerances{});
    EXPECT_FALSE(cmp.ok());
    ASSERT_EQ(cmp.structural.size(), 1u);
    EXPECT_NE(cmp.structural[0].find("slots.idle"), std::string::npos);
}

// --- End-to-end through the binaries ---------------------------------------

TEST(ReportTools, CtcpsimReportFlowAndCompareGate)
{
    const std::string dir = test::tmpDir().string() + "/";
    const std::string json_a = dir + "ctcp_rt_a.json";
    const std::string json_b = dir + "ctcp_rt_b.json";
    const std::string html = dir + "ctcp_rt.html";

    const std::string campaign =
        std::string(CTCP_CTCPSIM_PATH) +
        " --campaign 'bench=gzip;strategy=base,fdrt;budget=20000'"
        " --jobs 2 --accounting --out ";
    ASSERT_EQ(runCmd(campaign + json_a), 0);
    ASSERT_EQ(runCmd(campaign + json_b), 0);

    const std::string a_text = slurp(json_a);
    ASSERT_NE(a_text.find("\"accounting\""), std::string::npos);
    // Determinism across invocations is what makes an exact-compare
    // CI gate viable at all.
    ASSERT_EQ(a_text, slurp(json_b));

    // ctcp_report renders it; the page is self-contained HTML.
    ASSERT_EQ(runCmd(std::string(CTCP_REPORT_PATH) + " " + json_a +
                     " -o " + html),
              0);
    const std::string page = slurp(html);
    EXPECT_NE(page.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(page.find("gzip/base"), std::string::npos);
    EXPECT_NE(page.find("class=\"heat\""), std::string::npos);
    EXPECT_EQ(page.find("<script"), std::string::npos);
    EXPECT_EQ(page.find("https://"), std::string::npos);

    // Identical reports: exit 0.
    EXPECT_EQ(runCmd(std::string(CTCP_COMPARE_PATH) + " " + json_a +
                     " " + json_b),
              0);

    // Perturb one metric; the gate must trip and name the drift.
    std::string mutated = a_text;
    const std::size_t pos = mutated.find("\"ipc\": ");
    ASSERT_NE(pos, std::string::npos);
    mutated.insert(pos + 7, "9");
    spit(json_b, mutated);
    std::string table;
    EXPECT_EQ(runCmdCapture(std::string(CTCP_COMPARE_PATH) + " " +
                                json_a + " " + json_b,
                            table),
              1);
    EXPECT_NE(table.find("ipc"), std::string::npos);
    EXPECT_NE(table.find("FAIL"), std::string::npos);

    // Usage errors: exit 2.
    EXPECT_EQ(runCmd(std::string(CTCP_COMPARE_PATH)), 2);
    // Tolerances are plain decimals: an infinite one would pass any
    // drift, even reports of two different budgets.
    for (const char *bad :
         {"--tol nonsense", "--tol inf", "--tol nan", "--tol -0",
          "--tol 1e3", "--tol 0x10", "--tol-metric ipc=inf"})
        EXPECT_EQ(runCmd(std::string(CTCP_COMPARE_PATH) + " " + json_a +
                         " " + json_b + " " + bad),
                  2)
            << bad;
    EXPECT_EQ(runCmd(std::string(CTCP_REPORT_PATH)), 2);
    // Unreadable input: exit 1.
    EXPECT_EQ(runCmd(std::string(CTCP_REPORT_PATH) + " " + dir +
                     "ctcp_rt_nonexistent.json"),
              1);

    // Single-run --report writes HTML directly from ctcpsim.
    const std::string run_html = dir + "ctcp_rt_run.html";
    const std::string intervals = dir + "ctcp_rt_run.csv";
    ASSERT_EQ(runCmd(std::string(CTCP_CTCPSIM_PATH) +
                     " --bench gzip --instructions 20000"
                     " --interval-stats " + intervals +
                     " --interval 1000 --report " + run_html),
              0);
    const std::string run_page = slurp(run_html);
    EXPECT_NE(run_page.find("gzip/base"), std::string::npos);
    EXPECT_NE(run_page.find("<polyline"), std::string::npos);
    EXPECT_EQ(run_page.find("<script"), std::string::npos);

    for (const std::string &p :
         {json_a, json_b, html, run_html, intervals})
        std::remove(p.c_str());
}

} // namespace
} // namespace ctcp
