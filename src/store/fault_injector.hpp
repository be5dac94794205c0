// FaultInjector: a process-wide interception point for the store's durable
// write paths, used by the deterministic simulation harness (src/simtest)
// and fault-injection tests to exercise fsync failures, torn journal tails
// and short writes without root, FUSE or a custom filesystem.
//
// Production behaviour is untouched: when no injector is installed (the
// default), every check compiles down to one relaxed atomic load of a null
// pointer. The journal and fsio consult the injector immediately before
// each write()/fsync() and honour its decision:
//   kPass        perform the operation normally,
//   kFail        do not touch the file; report EIO to the caller (the
//                journal fail-stops, exactly as on a real disk error),
//   kShortWrite  write only the first `bytes` bytes, then report EIO —
//                this is how a torn journal tail is manufactured: the
//                partial line stays on disk for replay to detect and drop.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace qcenv::store {

/// Which durable-write path is about to touch the disk.
enum class FsOp {
  kJournalWrite,   // JobJournal::write_block payload write
  kJournalFsync,   // JobJournal fsync (inline or group commit)
  kAtomicWrite,    // fsio::write_file_atomic contents write (snapshots,
                   // journal compaction rewrites)
  kAtomicFsync,    // fsio::write_file_atomic fsync before rename
};

const char* to_string(FsOp op) noexcept;

struct FaultDecision {
  enum class Kind { kPass, kFail, kShortWrite };
  Kind kind = Kind::kPass;
  /// For kShortWrite: how many leading bytes still reach the file.
  std::size_t bytes = 0;

  static FaultDecision pass() { return {}; }
  static FaultDecision fail() { return {Kind::kFail, 0}; }
  static FaultDecision short_write(std::size_t bytes) {
    return {Kind::kShortWrite, bytes};
  }
};

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// Consulted immediately before a write of `size` bytes.
  virtual FaultDecision on_write(FsOp op, const std::string& path,
                                 std::size_t size) = 0;
  /// Consulted immediately before an fsync; true = make the fsync fail.
  virtual bool on_fsync(FsOp op, const std::string& path) = 0;
};

/// Installs (or, with nullptr, removes) the process-wide injector. The
/// caller keeps ownership and must clear the injector before destroying
/// it. Scenarios install one injector at a time; installation itself is
/// thread-safe.
void set_fault_injector(FaultInjector* injector);
FaultInjector* fault_injector() noexcept;

/// RAII installation for tests: installs on construction, clears on
/// destruction (restoring none, not the previous — scenarios do not nest).
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector) {
    set_fault_injector(injector);
  }
  ~ScopedFaultInjector() { set_fault_injector(nullptr); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;
};

/// Ready-made injector for the common schedules: pass the first N journal
/// writes, then fail (or short-write) every one after — the "daemon died
/// at journal offset N" crash model — and optionally fail snapshot writes.
/// All knobs are safe to adjust between operations from one thread while
/// another performs writes.
class CountingFaultInjector final : public FaultInjector {
 public:
  /// Journal writes strictly after the first `n` fail. SIZE_MAX disables.
  void fail_journal_writes_after(std::uint64_t n) {
    std::scoped_lock lock(mutex_);
    fail_after_ = n;
    short_write_ = false;
  }
  /// Same, but the first failing write is torn mid-line: its first
  /// `keep_bytes` bytes reach the file.
  void tear_journal_write_after(std::uint64_t n, std::size_t keep_bytes) {
    std::scoped_lock lock(mutex_);
    fail_after_ = n;
    short_write_ = true;
    keep_bytes_ = keep_bytes;
  }
  void fail_journal_fsyncs(bool fail) {
    std::scoped_lock lock(mutex_);
    fail_fsyncs_ = fail;
  }
  void fail_snapshot_writes(bool fail) {
    std::scoped_lock lock(mutex_);
    fail_snapshots_ = fail;
  }
  /// Exactly ONE atomic rewrite fails: the `skip`-th one from now (0 =
  /// the very next write_file_atomic). Disarms after firing. This is the
  /// mid-compaction crash model: a compaction dies on its snapshot or
  /// journal rewrite, the rename never happens, and the next life must
  /// find the ORIGINAL file intact.
  void fail_one_atomic_write_after(std::uint64_t skip) {
    std::scoped_lock lock(mutex_);
    atomic_fail_at_ = atomic_writes_ + skip;
  }
  /// Back to a fault-free disk (counters keep running).
  void heal() {
    std::scoped_lock lock(mutex_);
    fail_after_ = kNever;
    short_write_ = false;
    fail_fsyncs_ = false;
    fail_snapshots_ = false;
    atomic_fail_at_ = kNever;
  }

  std::uint64_t journal_writes() const {
    std::scoped_lock lock(mutex_);
    return journal_writes_;
  }
  std::uint64_t atomic_writes() const {
    std::scoped_lock lock(mutex_);
    return atomic_writes_;
  }

  FaultDecision on_write(FsOp op, const std::string& path,
                         std::size_t size) override;
  bool on_fsync(FsOp op, const std::string& path) override;

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  mutable std::mutex mutex_;
  std::uint64_t journal_writes_ = 0;
  std::uint64_t fail_after_ = kNever;
  bool short_write_ = false;
  std::size_t keep_bytes_ = 0;
  bool fail_fsyncs_ = false;
  bool fail_snapshots_ = false;
  std::uint64_t atomic_writes_ = 0;
  std::uint64_t atomic_fail_at_ = kNever;
};

}  // namespace qcenv::store
