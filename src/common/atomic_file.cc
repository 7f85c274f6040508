#include "common/atomic_file.hh"

#include <stdexcept>

namespace ctcp {

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), tmpPath_(path_ + ".tmp")
{
    file_ = std::fopen(tmpPath_.c_str(), "w");
    if (!file_)
        throw std::runtime_error("cannot open '" + tmpPath_ +
                                 "' for writing");
}

AtomicFile::~AtomicFile()
{
    if (committed_)
        return;
    if (file_)
        std::fclose(file_);
    std::remove(tmpPath_.c_str());
}

void
AtomicFile::write(const void *data, std::size_t size)
{
    if (size > 0)
        std::fwrite(data, 1, size, file_);
}

void
AtomicFile::commit()
{
    // A failed write (say, ENOSPC) sets the error flag even when
    // the final flush has nothing left to write.
    const bool flushed = std::fflush(file_) == 0 && !std::ferror(file_);
    std::fclose(file_);
    file_ = nullptr;
    if (!flushed) {
        std::remove(tmpPath_.c_str());
        throw std::runtime_error("error writing '" + tmpPath_ + "'");
    }
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        std::remove(tmpPath_.c_str());
        throw std::runtime_error("cannot rename '" + tmpPath_ +
                                 "' to '" + path_ + "'");
    }
    committed_ = true;
}

void
atomicWriteFile(const std::string &path, const std::string &payload)
{
    AtomicFile file(path);
    file.write(payload);
    file.commit();
}

} // namespace ctcp
