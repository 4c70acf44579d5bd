// MemFs: an in-process, memory-backed lsmcol::FileSystem for the benchmark.
//
// Every store the benchmark opens does its component, WAL and manifest I/O
// through this filesystem, so no latency in a run comes from a device's
// fsync or from the page cache of whatever disk the checkout lives on. A
// Sync() is a no-op; file bytes live in fixed-size chunks that open
// handles share (an unlinked file stays readable through a handle, as on
// POSIX), so an append costs the bytes appended, as on a real
// filesystem: a file held in one contiguous buffer is copied whole each
// time the buffer grows, which put about one WAL append in a hundred on
// a second, slower latency mode right at p99. Thread-safe through one
// mutex; the benchmark is single-threaded, so the lock is never
// contended.

#ifndef LSMCOL_PERFBENCH_MEMFS_H_
#define LSMCOL_PERFBENCH_MEMFS_H_

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/storage/filesystem.h"

namespace lsmcol::perfbench {

/// The bytes of one file, in 64 KiB chunks (below glibc's mmap threshold,
/// so freed chunks are reused from the heap).
class ChunkedBytes {
 public:
  static constexpr uint64_t kChunk = 64 << 10;

  uint64_t size() const { return size_; }

  /// Truncates or extends the file; extended bytes read as zeros.
  void Resize(uint64_t n) {
    if (n <= size_) {
      chunks_.resize(ChunksFor(n));
      size_ = n;
      return;
    }
    const uint64_t old = size_;
    Grow(n);
    Copy(old, static_cast<size_t>(n - old),
         [](char* chunk, size_t len) { std::memset(chunk, 0, len); });
  }

  /// Writes `n` bytes at `offset`, extending the file as needed.
  void Write(uint64_t offset, const char* src, size_t n) {
    if (offset > size_) Resize(offset);
    if (offset + n > size_) Grow(offset + n);
    Copy(offset, n, [&src](char* chunk, size_t len) {
      std::memcpy(chunk, src, len);
      src += len;
    });
  }

  /// Reads `n` bytes at `offset` (all below size()) into `dst`.
  void Read(uint64_t offset, size_t n, char* dst) {
    Copy(offset, n, [&dst](char* chunk, size_t len) {
      std::memcpy(dst, chunk, len);
      dst += len;
    });
  }

 private:
  static uint64_t ChunksFor(uint64_t n) { return (n + kChunk - 1) / kChunk; }

  /// Sets the size to `n` > size(), adding uninitialized chunks.
  void Grow(uint64_t n) {
    for (uint64_t c = chunks_.size(); c < ChunksFor(n); ++c) {
      chunks_.push_back(std::make_unique_for_overwrite<char[]>(kChunk));
    }
    size_ = n;
  }

  /// Calls fn(pointer, length) over the pieces of [offset, offset + n).
  template <typename Fn>
  void Copy(uint64_t offset, size_t n, Fn fn) {
    while (n > 0) {
      const uint64_t in = offset % kChunk;
      const size_t len = static_cast<size_t>(std::min<uint64_t>(n, kChunk - in));
      fn(chunks_[offset / kChunk].get() + in, len);
      offset += len;
      n -= len;
    }
  }

  std::vector<std::unique_ptr<char[]>> chunks_;
  uint64_t size_ = 0;
};

class MemFs final : public FileSystem {
 public:
  Result<std::unique_ptr<FsFile>> Create(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto data = std::make_shared<ChunkedBytes>();
    files_[path] = data;
    return std::unique_ptr<FsFile>(new File(this, path, std::move(data)));
  }

  Result<std::unique_ptr<FsFile>> Open(const std::string& path,
                                       bool /*writable*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::IOError("memfs: no file " + path);
    return std::unique_ptr<FsFile>(new File(this, path, it->second));
  }

  Status Rename(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(from);
    if (it == files_.end()) return Status::IOError("memfs: no file " + from);
    auto data = it->second;
    files_.erase(it);
    files_[to] = std::move(data);
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.erase(path) == 0) {
      return Status::IOError("memfs: no file " + path);
    }
    return Status::OK();
  }

  bool Exists(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(path) != 0 || dirs_.count(path) != 0;
  }

  Status SyncDir(const std::string& /*dir*/) override { return Status::OK(); }

  Status CreateDirs(const std::string& dir) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::string d = dir; !d.empty() && d != "." && d != "/";
         d = ParentDir(d)) {
      dirs_.insert(d);
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    for (const auto& [path, data] : files_) {
      if (ParentDir(path) == dir) names.push_back(path.substr(dir.size() + 1));
    }
    return names;
  }

 private:
  class File final : public FsFile {
   public:
    File(MemFs* fs, std::string path, std::shared_ptr<ChunkedBytes> data)
        : FsFile(std::move(path)), fs_(fs), data_(std::move(data)) {}

    Status ReadAt(uint64_t offset, size_t n, Buffer* out) override {
      std::lock_guard<std::mutex> lock(fs_->mu_);
      const uint64_t size = data_->size();
      const size_t got =
          offset >= size ? 0 : static_cast<size_t>(std::min<uint64_t>(
                                   n, size - offset));
      out->resize(got);
      if (got > 0) data_->Read(offset, got, out->mutable_data());
      return Status::OK();
    }

    Status WriteAt(uint64_t offset, Slice data) override {
      std::lock_guard<std::mutex> lock(fs_->mu_);
      data_->Write(offset, data.data(), data.size());
      return Status::OK();
    }

    Status Append(Slice data, size_t* appended) override {
      std::lock_guard<std::mutex> lock(fs_->mu_);
      data_->Write(data_->size(), data.data(), data.size());
      if (appended != nullptr) *appended = data.size();
      return Status::OK();
    }

    Status Sync() override { return Status::OK(); }

    Status Truncate(uint64_t size) override {
      std::lock_guard<std::mutex> lock(fs_->mu_);
      data_->Resize(size);
      return Status::OK();
    }

    Result<uint64_t> Size() override {
      std::lock_guard<std::mutex> lock(fs_->mu_);
      return static_cast<uint64_t>(data_->size());
    }

   private:
    MemFs* fs_;
    std::shared_ptr<ChunkedBytes> data_;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<ChunkedBytes>> files_;
  std::set<std::string> dirs_;
};

}  // namespace lsmcol::perfbench

#endif  // LSMCOL_PERFBENCH_MEMFS_H_
