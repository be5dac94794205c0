#include "store/fsio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "store/fault_injector.hpp"

namespace qcenv::store {

using common::Status;

namespace {

common::Error io_failure(const std::string& what, const std::string& path) {
  return common::err::io(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

Status fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return io_failure("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return io_failure("fsync failed on directory", dir);
  return Status::ok_status();
}

Status write_file_atomic(const std::string& path,
                         std::string_view contents) {
  AtomicFileWriter writer(path);
  writer.append(contents);
  return writer.commit();
}

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)), tmp_(path_ + ".tmp") {
  fd_ = ::open(tmp_.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0600);
  if (fd_ < 0) error_ = io_failure("cannot create", tmp_);
  buffer_.reserve(kFlushBytes + kFlushBytes / 4);
}

AtomicFileWriter::~AtomicFileWriter() { discard(); }

void AtomicFileWriter::discard() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  ::unlink(tmp_.c_str());
}

void AtomicFileWriter::write_out(std::string_view data) {
  while (!error_.has_value() && !data.empty()) {
    const ssize_t wrote = ::write(fd_, data.data(), data.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      error_ = io_failure("cannot write", tmp_);
      return;
    }
    data.remove_prefix(static_cast<std::size_t>(wrote));
    written_ += static_cast<std::uint64_t>(wrote);
  }
}

void AtomicFileWriter::drain() {
  if (buffer_.size() < kFlushBytes) return;
  write_out(buffer_);
  buffer_.clear();
}

void AtomicFileWriter::append(std::string_view data) {
  if (data.size() < kFlushBytes) {
    buffer_.append(data);
    drain();
    return;
  }
  // Large pieces bypass the buffer instead of being copied into it.
  write_out(buffer_);
  buffer_.clear();
  write_out(data);
}

Status AtomicFileWriter::commit() {
  if (FaultInjector* injector = fault_injector();
      injector != nullptr && !error_.has_value()) {
    const FaultDecision decision = injector->on_write(
        FsOp::kAtomicWrite, path_, written_ + buffer_.size());
    if (decision.kind != FaultDecision::Kind::kPass) {
      // Atomic writes are all-or-nothing by construction: a failed or
      // short tmp-file write never replaces the destination, so both
      // injected kinds collapse to "the write failed, old file intact".
      errno = EIO;
      error_ = io_failure("cannot write", tmp_);
    } else if (injector->on_fsync(FsOp::kAtomicFsync, path_)) {
      errno = EIO;
      error_ = io_failure("fsync failed on", tmp_);
    }
  }
  write_out(buffer_);
  buffer_.clear();
  if (!error_.has_value() && ::fsync(fd_) != 0) {
    error_ = io_failure("fsync failed on", tmp_);
  }
  if (error_.has_value()) {
    discard();
    return *error_;
  }
  ::close(fd_);
  fd_ = -1;
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    return io_failure("cannot swap into", path_);
  }
  // Make the rename itself durable: without this, a crash can persist a
  // journal truncation but lose the snapshot rename that justified it.
  return fsync_parent_dir(path_);
}

}  // namespace qcenv::store
