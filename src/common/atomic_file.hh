/**
 * @file
 * Crash-safe file writing: stage the content in "<path>.tmp", then
 * rename() over the target on commit. An interrupted writer (crash,
 * kill, exception before commit) leaves the previous version of the
 * target untouched — consumers never observe a truncated file.
 */

#ifndef CTCPSIM_COMMON_ATOMIC_FILE_HH
#define CTCPSIM_COMMON_ATOMIC_FILE_HH

#include <cstdio>
#include <string>

namespace ctcp {

/**
 * A file whose content only becomes visible at commit(). Write through
 * write(); destroying the object without committing removes the
 * temporary and leaves any existing target file as it was.
 */
class AtomicFile
{
  public:
    /** @throws std::runtime_error when the staging file cannot be opened */
    explicit AtomicFile(std::string path);
    ~AtomicFile();

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    void write(const void *data, std::size_t size);
    void write(const std::string &text) { write(text.data(), text.size()); }

    /**
     * Flush, close, and rename the staging file over the target.
     * @throws std::runtime_error when flushing or renaming fails
     */
    void commit();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::string tmpPath_;
    std::FILE *file_ = nullptr;
    bool committed_ = false;
};

/** One-shot atomic write of @p payload to @p path. */
void atomicWriteFile(const std::string &path, const std::string &payload);

} // namespace ctcp

#endif // CTCPSIM_COMMON_ATOMIC_FILE_HH
