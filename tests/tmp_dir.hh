/**
 * @file
 * One temporary directory per test process, removed with its contents
 * when the process exits.
 *
 * Tests that write files put them under tmpPath(name) instead of
 * beside testing::TempDir(): ctest runs each case as its own process,
 * so concurrent cases (ctest -j) and concurrent suite invocations
 * never share a path, and a finished run leaves nothing behind.
 * Paths are joined with std::filesystem::path because gtest's
 * TempDir() may return TEST_TMPDIR without a trailing separator.
 */

#ifndef CTCPSIM_TESTS_TMP_DIR_HH
#define CTCPSIM_TESTS_TMP_DIR_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ctcp::test {

/** "<TempDir>/ctcp_tests.<pid>", created now, removed on destruction. */
class ProcessTmpDir
{
  public:
    ProcessTmpDir()
        : owner_(::getpid()),
          path_(std::filesystem::path(::testing::TempDir()) /
                ("ctcp_tests." + std::to_string(owner_)))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ProcessTmpDir()
    {
        // A forked child that unwinds normally must not delete the
        // directory its parent is still using.
        if (::getpid() != owner_)
            return;
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    ProcessTmpDir(const ProcessTmpDir &) = delete;
    ProcessTmpDir &operator=(const ProcessTmpDir &) = delete;

    const std::filesystem::path &path() const { return path_; }

  private:
    pid_t owner_;
    std::filesystem::path path_;
};

/** The process's temporary directory, created on first use. */
inline const std::filesystem::path &
tmpDir()
{
    static const ProcessTmpDir dir;
    return dir.path();
}

/** @p name inside the process's temporary directory. */
inline std::string
tmpPath(const std::string &name)
{
    return (tmpDir() / name).string();
}

} // namespace ctcp::test

#endif // CTCPSIM_TESTS_TMP_DIR_HH
