// Small durable-file-IO helpers shared by the journal and snapshot code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace qcenv::store {

/// Fsyncs the directory containing `path`, making renames/creations of
/// entries inside it durable (POSIX gives no ordering otherwise).
common::Status fsync_parent_dir(const std::string& path);

/// Writes `contents` to `path` atomically: `<path>.tmp` + fsync + rename +
/// parent-dir fsync, so a crash leaves either the old file or the new one,
/// never a partial mix. Files are created 0600 — store files carry session
/// bearer tokens and user payloads.
common::Status write_file_atomic(const std::string& path,
                                 std::string_view contents);

/// write_file_atomic for contents produced piece by piece, so the whole
/// file never sits in memory: callers append text to buffer() and call
/// drain() between records, which writes the buffer out to `<path>.tmp`
/// once it holds kFlushBytes. commit() writes the rest, then fsyncs,
/// renames and fsyncs the directory. A writer destroyed without a
/// successful commit removes its tmp file and leaves `path` untouched.
/// I/O errors are sticky and reported by commit().
class AtomicFileWriter {
 public:
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  std::string& buffer() noexcept { return buffer_; }
  /// Writes the buffer out once it holds at least kFlushBytes.
  void drain();
  void append(std::string_view data);
  common::Status commit();

 private:
  void write_out(std::string_view data);
  void discard();

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  std::string buffer_;
  std::uint64_t written_ = 0;
  std::optional<common::Error> error_;
};

}  // namespace qcenv::store
