/**
 * @file
 * Shared harness for end-to-end service tests (test_service_e2e,
 * test_shard_e2e): spawn real ctcpd daemons on private sockets, drive
 * them through ctcpctl, and capture command output.
 *
 * Including targets must define CTCP_CTCPD_PATH, CTCP_CTCPCTL_PATH and
 * CTCP_CTCPSIM_PATH (configure-time binary paths).
 */

#ifndef CTCPSIM_TESTS_E2E_UTIL_HH
#define CTCPSIM_TESTS_E2E_UTIL_HH

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "tmp_dir.hh"
#include "service/client.hh"
#include "service/http.hh"

namespace e2e {

struct CommandResult
{
    int status = -1;
    std::string output; // stdout only
};

/** Run a shell command, capturing exit status and stdout. */
inline CommandResult
run(const std::string &cmd)
{
    CommandResult result;
    FILE *pipe = ::popen((cmd + " 2>/dev/null").c_str(), "r");
    if (!pipe)
        return result;
    char buffer[4096];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0)
        result.output.append(buffer, n);
    const int rc = ::pclose(pipe);
    result.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return result;
}

/** Run a command and capture stderr (for diagnostics assertions). */
inline std::string
runStderr(const std::string &cmd)
{
    std::string output;
    FILE *pipe = ::popen((cmd + " 2>&1 1>/dev/null").c_str(), "r");
    if (!pipe)
        return output;
    char buffer[4096];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0)
        output.append(buffer, n);
    ::pclose(pipe);
    return output;
}

inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

inline std::string
chomp(std::string text)
{
    while (!text.empty() &&
           (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();
    return text;
}

/** The private directory of the Daemon tagged @p tag. */
inline std::string
daemonDir(const std::string &tag)
{
    return ctcp::test::tmpPath("e2e_" + tag);
}

/** One daemon instance on a private socket + state dir. */
class Daemon
{
  public:
    explicit Daemon(const std::string &tag, unsigned workers = 2,
                    std::vector<std::string> extraArgs = {})
        : dir_(daemonDir(tag)),
          socket_(dir_ + "/d.sock"), state_(dir_ + "/state"),
          extraArgs_(std::move(extraArgs))
    {
        // State from an earlier daemon with this tag would resume
        // into this one and trivialize the crash/resume scenarios.
        std::filesystem::remove_all(dir_);
        ::mkdir(dir_.c_str(), 0755);
        start(workers);
    }

    ~Daemon() { kill(); }

    void start(unsigned workers = 2)
    {
        pid_ = ::fork();
        ASSERT_GE(pid_, 0);
        if (pid_ == 0) {
            // Quiet child: the test asserts over the API, not logs.
            ::freopen("/dev/null", "w", stdout);
            ::freopen("/dev/null", "w", stderr);
            const std::string workers_text = std::to_string(workers);
            std::vector<const char *> argv = {
                CTCP_CTCPD_PATH,     "--socket",  socket_.c_str(),
                "--state-dir",       state_.c_str(), "--workers",
                workers_text.c_str()};
            for (const std::string &arg : extraArgs_)
                argv.push_back(arg.c_str());
            argv.push_back(nullptr);
            ::execv(CTCP_CTCPD_PATH,
                    const_cast<char *const *>(argv.data()));
            ::_exit(127);
        }
        waitReady();
    }

    /** Block until the daemon answers /v1/ping (bounded). */
    void waitReady()
    {
        for (int i = 0; i < 100; ++i) {
            ctcp::service::HttpResponse resp;
            std::string error;
            if (ctcp::service::httpRequest(socket_, "GET", "/v1/ping",
                                           "", resp, error) &&
                resp.status == 200)
                return;
            ::usleep(100 * 1000);
        }
        FAIL() << "daemon never became ready on " << socket_;
    }

    /** SIGKILL (simulated crash); reap the child. */
    void kill()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    /** SIGTERM (graceful); @return the daemon's exit status. */
    int terminate()
    {
        if (pid_ <= 0)
            return -1;
        ::kill(pid_, SIGTERM);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    /** ctcpctl against this daemon. */
    CommandResult ctl(const std::string &args) const
    {
        return run(std::string(CTCP_CTCPCTL_PATH) + " --socket " +
                   socket_ + " " + args);
    }

    const std::string &dir() const { return dir_; }
    const std::string &socketPath() const { return socket_; }
    const std::string &statePath() const { return state_; }

  private:
    std::string dir_;
    std::string socket_;
    std::string state_;
    std::vector<std::string> extraArgs_;
    pid_t pid_ = -1;
};

/** Write a spec file under @p dir and return its path. */
inline std::string
writeSpec(const std::string &dir, const std::string &spec)
{
    const std::string path = dir + "/spec.txt";
    std::ofstream out(path, std::ios::binary);
    out << spec;
    return path;
}

/** Reference report: `ctcpsim --campaign` over the same matrix. */
inline std::string
batchReport(const std::string &dir, const std::string &matrix)
{
    const std::string out = dir + "/batch.json";
    const CommandResult batch =
        run(std::string(CTCP_CTCPSIM_PATH) + " --campaign '" + matrix +
            "' --jobs 2 --out " + out);
    EXPECT_EQ(batch.status, 0);
    return slurp(out);
}

} // namespace e2e

#endif // CTCPSIM_TESTS_E2E_UTIL_HH
