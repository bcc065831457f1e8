#include "io/input_source.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace jsonsi::io {
namespace {

Status Errno(const std::string& what, const std::string& name) {
  return Status::Internal(what + " failed for " + name + ": " +
                         std::strerror(errno));
}

// read() with EINTR retry; -1 => errno error.
ssize_t ReadFull(int fd, char* buf, size_t len) {
  for (;;) {
    ssize_t n = ::read(fd, buf, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

Result<std::unique_ptr<InputSource>> OpenStream(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open file: " + path);
  return std::unique_ptr<InputSource>(
      new StreamSource(path, fd, /*close_fd=*/true));
}

}  // namespace

bool ParseIoMode(std::string_view name, IoMode* mode) {
  if (name == "auto") {
    *mode = IoMode::kAuto;
  } else if (name == "mmap") {
    *mode = IoMode::kMmap;
  } else if (name == "read") {
    *mode = IoMode::kRead;
  } else if (name == "stream") {
    *mode = IoMode::kStream;
  } else {
    return false;
  }
  return true;
}

const char* IoModeName(IoMode mode) {
  switch (mode) {
    case IoMode::kAuto:
      return "auto";
    case IoMode::kMmap:
      return "mmap";
    case IoMode::kRead:
      return "read";
    case IoMode::kStream:
      return "stream";
  }
  return "auto";
}

MemorySource::MemorySource(std::string_view data, bool expose_contents)
    : data_(data), expose_contents_(expose_contents) {}

std::optional<std::string_view> MemorySource::Contents() const {
  if (!expose_contents_) return std::nullopt;
  return data_;
}

Result<size_t> MemorySource::Read(char* buf, size_t len) {
  size_t n = std::min(len, data_.size() - pos_);
  std::memcpy(buf, data_.data() + pos_, n);
  pos_ += n;
  return n;
}

Status MemorySource::SkipTo(uint64_t offset) {
  pos_ = static_cast<size_t>(std::min<uint64_t>(offset, data_.size()));
  return Status::OK();
}

MmapSource::MmapSource(std::string name, const char* data, size_t size)
    : name_(std::move(name)), data_(data), size_(size) {}

Result<std::unique_ptr<MmapSource>> MmapSource::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open file: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::Internal("not a mappable regular file: " + path);
  }
  size_t size = static_cast<size_t>(st.st_size);
  const char* data = nullptr;
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      return Errno("mmap", path);
    }
    // The pipeline scans front to back exactly once: tell the kernel so it
    // reads ahead aggressively and drops pages behind the scan, and prime
    // the first window so the first batch does not fault cold.
    ::madvise(map, size, MADV_SEQUENTIAL);
    ::madvise(map, std::min<size_t>(size, 16ull << 20), MADV_WILLNEED);
    data = static_cast<const char*>(map);
  }
  ::close(fd);  // the mapping keeps the file alive
  return std::unique_ptr<MmapSource>(new MmapSource(path, data, size));
}

MmapSource::~MmapSource() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

Result<size_t> MmapSource::Read(char* buf, size_t len) {
  size_t n = std::min(len, size_ - pos_);
  if (n > 0) std::memcpy(buf, data_ + pos_, n);
  pos_ += n;
  return n;
}

Status MmapSource::SkipTo(uint64_t offset) {
  pos_ = static_cast<size_t>(std::min<uint64_t>(offset, size_));
  return Status::OK();
}

ReadSource::ReadSource(std::string name, int fd, uint64_t size)
    : name_(std::move(name)), fd_(fd), size_(size) {}

Result<std::unique_ptr<ReadSource>> ReadSource::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open file: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::Internal("not a readable regular file: " + path);
  }
#ifdef POSIX_FADV_SEQUENTIAL
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_SEQUENTIAL);
#endif
  return std::unique_ptr<ReadSource>(
      new ReadSource(path, fd, static_cast<uint64_t>(st.st_size)));
}

ReadSource::~ReadSource() {
  if (fd_ >= 0) ::close(fd_);
}

Result<size_t> ReadSource::Read(char* buf, size_t len) {
  size_t total = 0;
  while (total < len) {
    ssize_t n;
    for (;;) {
      n = ::pread(fd_, buf + total, len - total,
                  static_cast<off_t>(pos_ + total));
      if (n >= 0 || errno != EINTR) break;
    }
    if (n < 0) return Errno("pread", name_);
    if (n == 0) break;  // end of file
    total += static_cast<size_t>(n);
  }
  pos_ += total;
  return total;
}

Status ReadSource::SkipTo(uint64_t offset) {
  pos_ = offset;
  return Status::OK();
}

StreamSource::StreamSource(std::string name, int fd, bool close_fd)
    : name_(std::move(name)), fd_(fd), close_fd_(close_fd) {}

StreamSource::~StreamSource() {
  if (close_fd_ && fd_ >= 0) ::close(fd_);
}

Result<size_t> StreamSource::Read(char* buf, size_t len) {
  size_t total = 0;
  // Short reads are normal on pipes; loop so callers see full buffers
  // whenever the producer keeps up (fewer, larger batches downstream).
  while (total < len) {
    ssize_t n = ReadFull(fd_, buf + total, len - total);
    if (n < 0) return Errno("read", name_);
    if (n == 0) break;  // end of stream
    total += static_cast<size_t>(n);
  }
  pos_ += total;
  return total;
}

Status StreamSource::SkipTo(uint64_t offset) {
  // Non-seekable: consume and discard. A resume offset on a pipe means the
  // upstream producer replays the stream from the start.
  if (offset < pos_) {
    return Status::InvalidArgument("cannot seek backwards on stream " +
                                   name_);
  }
  std::vector<char> sink(64 << 10);
  while (pos_ < offset) {
    size_t want =
        static_cast<size_t>(std::min<uint64_t>(sink.size(), offset - pos_));
    ssize_t n = ReadFull(fd_, sink.data(), want);
    if (n < 0) return Errno("read", name_);
    if (n == 0) break;  // stream ended before the offset: EOF at next Read
    pos_ += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Result<std::unique_ptr<InputSource>> OpenInputSource(
    const std::string& path, const IoOptions& options) {
  if (path == "-") {
    if (options.mode == IoMode::kMmap || options.mode == IoMode::kRead) {
      return Status::InvalidArgument(
          std::string("--io ") + IoModeName(options.mode) +
          " needs a seekable file; stdin only supports auto|stream");
    }
    return std::unique_ptr<InputSource>(
        new StreamSource("<stdin>", STDIN_FILENO, /*close_fd=*/false));
  }
  switch (options.mode) {
    case IoMode::kMmap: {
      Result<std::unique_ptr<MmapSource>> mapped = MmapSource::Open(path);
      if (!mapped.ok()) return mapped.status();
      return std::unique_ptr<InputSource>(std::move(mapped).value());
    }
    case IoMode::kRead: {
      Result<std::unique_ptr<ReadSource>> file = ReadSource::Open(path);
      if (!file.ok()) return file.status();
      return std::unique_ptr<InputSource>(std::move(file).value());
    }
    case IoMode::kStream:
      return OpenStream(path);
    case IoMode::kAuto: {
      // FIFOs (`jsi infer <(cmd)`) and character devices (/dev/null) can
      // be neither mapped nor pread: stream them like stdin.
      struct stat st;
      if (::stat(path.c_str(), &st) == 0 &&
          (S_ISFIFO(st.st_mode) || S_ISCHR(st.st_mode))) {
        return OpenStream(path);
      }
      Result<std::unique_ptr<MmapSource>> mapped = MmapSource::Open(path);
      if (mapped.ok()) {
        return std::unique_ptr<InputSource>(std::move(mapped).value());
      }
      if (mapped.status().code() == StatusCode::kNotFound) {
        return mapped.status();
      }
      // Openable but unmappable (unusual filesystem): degrade to pread.
      Result<std::unique_ptr<ReadSource>> file = ReadSource::Open(path);
      if (!file.ok()) return file.status();
      return std::unique_ptr<InputSource>(std::move(file).value());
    }
  }
  return Status::InvalidArgument("unknown io mode");
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open file: " + path);
  struct stat st;
  std::string out;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    out.resize(static_cast<size_t>(st.st_size));
    size_t total = 0;
    while (total < out.size()) {
      ssize_t n = ReadFull(fd, out.data() + total, out.size() - total);
      if (n < 0) {
        Status st_err = Errno("read", path);
        ::close(fd);
        return st_err;
      }
      if (n == 0) break;  // truncated concurrently: return what exists
      total += static_cast<size_t>(n);
    }
    out.resize(total);
  } else {
    // Not a regular file (pipe, /proc): size is unknowable, append-read.
    char buf[64 << 10];
    for (;;) {
      ssize_t n = ReadFull(fd, buf, sizeof(buf));
      if (n < 0) {
        Status st_err = Errno("read", path);
        ::close(fd);
        return st_err;
      }
      if (n == 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

}  // namespace jsonsi::io
