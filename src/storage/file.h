// PageFile: fixed-size-page file I/O over the FileSystem abstraction.
// One PageFile backs one LSM on-disk component. All reads normally go
// through the BufferCache so that I/O is counted and cached.
//
// Trailered pages (component formats v3 and v4; docs/FORMAT.md,
// "Page trailer and footer versions"): every physical page carries an
// 8-byte trailer — a fixed32 checksum over the zero-padded payload plus
// the page number, then a fixed32 trailer magic naming the checksum
// (v4: CRC-32C, v3: FNV-1a). The trailer is *added* to the page: a
// physical page is page_size() + kPageTrailerBytes bytes, so page_size()
// keeps meaning "payload bytes per page" and none of the chunking
// arithmetic above this layer changes. ReadPage verifies the trailer on
// every physical read (i.e. on every BufferCache miss) and returns
// Status::ChecksumMismatch naming the file and page; including the page
// number in the checksum also catches misdirected reads and writes.
// Legacy (v2) files have no trailer and read back unverified.

#ifndef LSMCOL_STORAGE_FILE_H_
#define LSMCOL_STORAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/storage/filesystem.h"

namespace lsmcol {

/// Default on-disk page size (the paper's evaluation setting, §6).
inline constexpr size_t kDefaultPageSize = 128 * 1024;

/// Bytes of per-page trailer on a trailered page: fixed32 checksum
/// (CRC-32C in v4, FNV-1a in v3) + fixed32 trailer magic. The same for
/// both kinds, so page geometry does not depend on the checksum.
inline constexpr size_t kPageTrailerBytes = 8;

/// How the physical pages of a PageFile are verified.
enum class PageTrailer : uint8_t {
  kNone,    ///< component format v2: raw pages, read back unverified
  kFnv1a,   ///< v3: FNV-1a checksum, trailer magic "PGCK"
  kCrc32c,  ///< v4: CRC-32C checksum, trailer magic "PGC4"
};

/// The trailer kind whose magic is `magic` (the last four bytes of a
/// trailered page); kNone when it names neither.
PageTrailer PageTrailerForMagic(uint32_t magic);

/// A file of fixed-size pages. Move-only; closes on destruction.
class PageFile {
 public:
  ~PageFile();
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Create (truncate) a file for writing. `page_size` is the payload
  /// bytes per page; unless `trailer` is kNone, each physical page
  /// carries kPageTrailerBytes of verification trailer on top.
  static Result<std::unique_ptr<PageFile>> Create(
      const std::string& path, size_t page_size,
      PageTrailer trailer = PageTrailer::kCrc32c, FileSystem* fs = nullptr);
  /// Open an existing file for reading. `trailer` must match how the
  /// file was written (component_file.cc sniffs the footer to decide).
  static Result<std::unique_ptr<PageFile>> Open(
      const std::string& path, size_t page_size,
      PageTrailer trailer = PageTrailer::kNone, FileSystem* fs = nullptr);

  /// Write one page. `payload` must be <= page_size; it is zero-padded
  /// (and, on a trailered file, trailed with its checksum). Pages may be
  /// written in any order but the file grows as needed.
  Status WritePage(uint64_t page_no, Slice payload);

  /// Read one full page payload into out (resized to page_size). On a
  /// trailered file the trailer is verified first: a mismatch (wrong
  /// checksum, or the other kind's magic) returns
  /// Status::ChecksumMismatch naming this file and page.
  Status ReadPage(uint64_t page_no, Buffer* out) const;

  Status Sync();

  /// Payload bytes per page (what callers chunk by).
  size_t page_size() const { return page_size_; }
  /// Bytes per page on disk (payload + trailer on a trailered file).
  size_t physical_page_size() const {
    return page_size_ +
           (trailer_ != PageTrailer::kNone ? kPageTrailerBytes : 0);
  }
  PageTrailer trailer() const { return trailer_; }
  uint64_t page_count() const { return page_count_; }
  const std::string& path() const { return path_; }

  /// Identifier unique within the process (buffer-cache key component).
  uint64_t file_id() const { return file_id_; }

  /// Total bytes on disk.
  uint64_t size_bytes() const { return page_count_ * physical_page_size(); }

 private:
  PageFile(std::string path, std::unique_ptr<FsFile> file, size_t page_size,
           PageTrailer trailer, uint64_t page_count);

  std::string path_;
  std::unique_ptr<FsFile> file_;
  size_t page_size_;
  PageTrailer trailer_;
  uint64_t page_count_;
  uint64_t file_id_;
};

/// Thread-safe strerror: the message for `err` (usually errno) without
/// the shared static buffer strerror(3) hands out.
std::string ErrnoMessage(int err);

/// FNV-1a 32-bit over `data`, optionally continuing a running hash. The
/// checksum of WAL frames, manifests and v3 page trailers (v4 page
/// trailers use Crc32c, src/storage/crc32c.h).
uint32_t Fnv1a32(Slice data, uint32_t seed = 2166136261u);

/// Delete a file (ignores non-existence).
Status RemoveFileIfExists(const std::string& path, FileSystem* fs = nullptr);

/// True when `path` names an existing file or directory.
bool FileExists(const std::string& path, FileSystem* fs = nullptr);

/// Atomically replace `to` with `from` (rename(2)), then fsync the
/// containing directory so the rename itself is durable. This is the
/// installation step of crash-safe component and manifest writes: readers
/// only ever observe the old or the new file, never a partial one.
Status RenameFile(const std::string& from, const std::string& to,
                  FileSystem* fs = nullptr);

/// fsync a directory (durability of renames/creates within it).
Status SyncDir(const std::string& dir, FileSystem* fs = nullptr);

/// Create `dir` (and parents) if missing and fsync its parent so the new
/// dirent survives a crash. No-op when `dir` already exists.
Status CreateDirDurable(const std::string& dir, FileSystem* fs = nullptr);

}  // namespace lsmcol

#endif  // LSMCOL_STORAGE_FILE_H_
