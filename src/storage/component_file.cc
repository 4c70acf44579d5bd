#include "src/storage/component_file.h"

#include <algorithm>

namespace lsmcol {
namespace {

// "LSMCOLF2": F1 -> F2 when APAX leaves gained the per-chunk stats table
// (zone filters). Old components are cleanly rejected at open instead of
// being mis-parsed; this repo regenerates its datasets, so there is no
// migration path — recovery surfaces Corruption and the caller rebuilds.
// "LSMCOLF3": F2 -> F3 when pages gained the FNV-1a checksum trailer.
// "LSMCOLF4": F3 -> F4 when the trailer checksum became CRC-32C (same
// trailer size and coverage, a tenth of the verify cost). F2 and F3
// files stay readable (mixed-version datasets are routine after an
// upgrade); Open sniffs the footer to pick the mode.
struct ComponentFormat {
  uint32_t version;
  PageTrailer trailer;
  uint64_t footer_magic;
};

constexpr ComponentFormat kFormats[] = {
    {kComponentFormatV2, PageTrailer::kNone, 0x4C534D434F4C4632ULL},
    {kComponentFormatV3, PageTrailer::kFnv1a, 0x4C534D434F4C4633ULL},
    {kComponentFormatV4, PageTrailer::kCrc32c, 0x4C534D434F4C4634ULL},
};

const ComponentFormat& FormatOf(PageTrailer trailer) {
  for (const ComponentFormat& f : kFormats) {
    if (f.trailer == trailer) return f;
  }
  LSMCOL_CHECK(false);
  return kFormats[0];
}

}  // namespace

Result<std::unique_ptr<ComponentWriter>> ComponentWriter::Create(
    const std::string& path, BufferCache* cache, size_t page_size,
    uint32_t format_version, FileSystem* fs) {
  const ComponentFormat* format = nullptr;
  for (const ComponentFormat& f : kFormats) {
    if (f.version == format_version) format = &f;
  }
  if (format == nullptr) {
    return Status::InvalidArgument("unsupported component format version " +
                                   std::to_string(format_version));
  }
  LSMCOL_ASSIGN_OR_RETURN(
      auto file, PageFile::Create(path, page_size, format->trailer, fs));
  return std::unique_ptr<ComponentWriter>(
      new ComponentWriter(path, std::move(file), cache));
}

ComponentWriter::~ComponentWriter() {
  if (file_ != nullptr && cache_ != nullptr) cache_->Invalidate(*file_);
}

Status ComponentWriter::WriteBlob(Slice blob, uint64_t* first_page,
                                  uint32_t* page_count) {
  const size_t page_size = file_->page_size();
  *first_page = next_page_;
  size_t offset = 0;
  uint32_t pages = 0;
  while (offset < blob.size() || pages == 0) {
    size_t chunk = std::min(page_size, blob.size() - offset);
    LSMCOL_RETURN_NOT_OK(cache_->WriteThrough(
        *file_, next_page_, blob.SubSlice(offset, chunk)));
    offset += chunk;
    ++next_page_;
    ++pages;
  }
  *page_count = pages;
  return Status::OK();
}

Status ComponentWriter::AppendLeaf(Slice payload, int64_t min_key,
                                   int64_t max_key, uint32_t record_count) {
  LSMCOL_CHECK(!finished_);
  LeafEntry entry;
  entry.min_key = min_key;
  entry.max_key = max_key;
  entry.payload_size = payload.size();
  entry.record_count = record_count;
  LSMCOL_RETURN_NOT_OK(WriteBlob(payload, &entry.first_page,
                                 &entry.page_count));
  leaves_.push_back(entry);
  return Status::OK();
}

Status ComponentWriter::Finish(Slice metadata) {
  LSMCOL_CHECK(!finished_);
  finished_ = true;
  // Index blob.
  Buffer index;
  index.AppendVarint64(leaves_.size());
  for (const LeafEntry& leaf : leaves_) {
    index.AppendSignedVarint64(leaf.min_key);
    index.AppendSignedVarint64(leaf.max_key);
    index.AppendVarint64(leaf.first_page);
    index.AppendVarint64(leaf.page_count);
    index.AppendVarint64(leaf.payload_size);
    index.AppendVarint64(leaf.record_count);
  }
  uint64_t index_page = 0;
  uint32_t index_pages = 0;
  LSMCOL_RETURN_NOT_OK(WriteBlob(index.slice(), &index_page, &index_pages));
  uint64_t meta_page = 0;
  uint32_t meta_pages = 0;
  LSMCOL_RETURN_NOT_OK(WriteBlob(metadata, &meta_page, &meta_pages));
  // Footer page. The trailing validity byte is the paper's "validity bit"
  // (§2.1.1): it is only set once everything else is durable.
  Buffer footer;
  footer.AppendFixed64(FormatOf(file_->trailer()).footer_magic);
  footer.AppendFixed64(index_page);
  footer.AppendFixed32(index_pages);
  footer.AppendFixed64(index.size());
  footer.AppendFixed64(meta_page);
  footer.AppendFixed32(meta_pages);
  footer.AppendFixed64(metadata.size());
  footer.AppendByte(1);  // valid
  LSMCOL_RETURN_NOT_OK(cache_->WriteThrough(*file_, next_page_, footer.slice()));
  ++next_page_;
  return file_->Sync();
}

Result<std::unique_ptr<ComponentReader>> ComponentReader::Open(
    const std::string& path, BufferCache* cache, size_t page_size,
    FileSystem* fs) {
  fs = ResolveFs(fs);
  uint64_t size = 0;
  uint32_t tail_magic = 0;
  {
    LSMCOL_ASSIGN_OR_RETURN(auto probe, fs->Open(path, /*writable=*/false));
    LSMCOL_ASSIGN_OR_RETURN(size, probe->Size());
    if (size >= 4) {
      Buffer tail;
      LSMCOL_RETURN_NOT_OK(probe->ReadAt(size - 4, 4, &tail));
      if (tail.size() == 4) tail_magic = DecodeFixed32(tail.data());
    }
  }
  if (size == 0) return Status::Corruption("empty component file: " + path);
  // Sniff the format from the file size and footer. A trailered (v3/v4)
  // file's size is a multiple of page_size + trailer, and its last four
  // bytes — the footer page's trailer magic — name the checksum; the
  // footer page must then verify and carry the matching footer magic.
  // An unknown magic is tried as v4, so damage to it still reports as a
  // checksum failure. Sizes can divide both ways (lcm of the two page
  // sizes), so a failed trailered attempt falls through to the legacy
  // parse — but a *verified* checksum failure is damage, and is
  // preferred over the legacy attempt's "bad magic" noise.
  const uint64_t physical_trailered = page_size + kPageTrailerBytes;
  Status trailered_err;
  if (size % physical_trailered == 0) {
    const PageTrailer trailer =
        PageTrailerForMagic(tail_magic) == PageTrailer::kFnv1a
            ? PageTrailer::kFnv1a
            : PageTrailer::kCrc32c;
    auto attempt = OpenAs(path, cache, page_size, trailer, fs);
    if (attempt.ok()) return attempt;
    trailered_err = attempt.status();
    if (size % page_size != 0) return trailered_err;
  }
  if (size % page_size == 0) {
    auto attempt = OpenAs(path, cache, page_size, PageTrailer::kNone, fs);
    if (attempt.ok()) return attempt;
    if (trailered_err.IsChecksumMismatch()) return trailered_err;
    return attempt.status();
  }
  if (!trailered_err.ok()) return trailered_err;
  return Status::Corruption("file size not a multiple of page size: " + path);
}

Result<std::unique_ptr<ComponentReader>> ComponentReader::OpenAs(
    const std::string& path, BufferCache* cache, size_t page_size,
    PageTrailer trailer, FileSystem* fs) {
  LSMCOL_ASSIGN_OR_RETURN(auto file,
                          PageFile::Open(path, page_size, trailer, fs));
  if (file->page_count() == 0) {
    return Status::Corruption("empty component file: " + path);
  }
  std::unique_ptr<ComponentReader> reader(
      new ComponentReader(std::move(file), cache, fs));
  // Footer.
  Buffer footer_page;
  LSMCOL_RETURN_NOT_OK(
      reader->file_->ReadPage(reader->file_->page_count() - 1, &footer_page));
  BufferReader fr(footer_page.slice());
  uint64_t magic = 0, index_page = 0, index_size = 0, meta_page = 0,
           meta_size = 0;
  uint32_t index_pages = 0, meta_pages = 0;
  uint8_t valid = 0;
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed64(&magic));
  if (magic != FormatOf(trailer).footer_magic) {
    return Status::Corruption("bad component magic: " + path);
  }
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed64(&index_page));
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed32(&index_pages));
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed64(&index_size));
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed64(&meta_page));
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed32(&meta_pages));
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed64(&meta_size));
  LSMCOL_RETURN_NOT_OK(fr.ReadByte(&valid));
  if (valid != 1) {
    return Status::Corruption("component not marked valid: " + path);
  }

  auto read_blob = [&](uint64_t first, uint32_t pages, uint64_t size,
                       Buffer* out) -> Status {
    out->clear();
    Buffer page;
    for (uint32_t i = 0; i < pages; ++i) {
      LSMCOL_RETURN_NOT_OK(reader->file_->ReadPage(first + i, &page));
      size_t take = std::min<uint64_t>(reader->file_->page_size(),
                                       size - out->size());
      out->Append(page.data(), take);
      if (out->size() >= size) break;
    }
    if (out->size() != size) return Status::Corruption("short blob");
    return Status::OK();
  };

  Buffer index_blob;
  LSMCOL_RETURN_NOT_OK(read_blob(index_page, index_pages, index_size,
                                 &index_blob));
  BufferReader ir(index_blob.slice());
  uint64_t leaf_count = 0;
  LSMCOL_RETURN_NOT_OK(ir.ReadVarint64(&leaf_count));
  reader->leaves_.resize(leaf_count);
  for (uint64_t i = 0; i < leaf_count; ++i) {
    LeafEntry& leaf = reader->leaves_[i];
    uint64_t tmp = 0;
    LSMCOL_RETURN_NOT_OK(ir.ReadSignedVarint64(&leaf.min_key));
    LSMCOL_RETURN_NOT_OK(ir.ReadSignedVarint64(&leaf.max_key));
    LSMCOL_RETURN_NOT_OK(ir.ReadVarint64(&leaf.first_page));
    LSMCOL_RETURN_NOT_OK(ir.ReadVarint64(&tmp));
    leaf.page_count = static_cast<uint32_t>(tmp);
    LSMCOL_RETURN_NOT_OK(ir.ReadVarint64(&leaf.payload_size));
    LSMCOL_RETURN_NOT_OK(ir.ReadVarint64(&tmp));
    leaf.record_count = static_cast<uint32_t>(tmp);
  }
  LSMCOL_RETURN_NOT_OK(read_blob(meta_page, meta_pages, meta_size,
                                 &reader->metadata_));
  return reader;
}

uint32_t ComponentReader::format_version() const {
  return FormatOf(file_->trailer()).version;
}

ComponentReader::~ComponentReader() {
  if (!destroyed_ && cache_ != nullptr) cache_->Invalidate(*file_);
}

Status ComponentReader::ReadLeaf(size_t leaf_index, Buffer* out) const {
  const LeafEntry& leaf = leaves_[leaf_index];
  return ReadLeafRange(leaf_index, 0, leaf.payload_size, out);
}

Status ComponentReader::ReadLeafRange(size_t leaf_index, uint64_t offset,
                                      uint64_t size, Buffer* out) const {
  LSMCOL_CHECK(leaf_index < leaves_.size());
  const LeafEntry& leaf = leaves_[leaf_index];
  if (offset > leaf.payload_size || size > leaf.payload_size - offset) {
    return Status::OutOfRange("leaf range out of bounds");
  }
  out->clear();
  if (size == 0) return Status::OK();
  const size_t page_size = file_->page_size();
  const uint64_t first = leaf.first_page + offset / page_size;
  const uint64_t last = leaf.first_page + (offset + size - 1) / page_size;
  uint64_t skip = offset % page_size;
  for (uint64_t p = first; p <= last; ++p) {
    LSMCOL_ASSIGN_OR_RETURN(PageHandle handle, cache_->Fetch(*file_, p));
    Slice data = handle.data();
    const uint64_t want = size - out->size();
    const uint64_t avail = data.size() - skip;
    const uint64_t take = std::min(want, avail);
    out->Append(data.data() + skip, take);
    skip = 0;
  }
  return Status::OK();
}

Status ComponentReader::ViewLeafRange(size_t leaf_index, uint64_t offset,
                                      uint64_t size, LeafBytes* out) const {
  LSMCOL_CHECK(leaf_index < leaves_.size());
  const LeafEntry& leaf = leaves_[leaf_index];
  out->page_ = PageHandle();
  out->copy_.clear();
  out->data_ = Slice();
  if (offset > leaf.payload_size || size > leaf.payload_size - offset) {
    return Status::OutOfRange("leaf range out of bounds");
  }
  if (size == 0) return Status::OK();
  const size_t page_size = file_->page_size();
  const uint64_t first = offset / page_size;
  if ((offset + size - 1) / page_size != first) {
    LSMCOL_RETURN_NOT_OK(ReadLeafRange(leaf_index, offset, size, &out->copy_));
    out->data_ = out->copy_.slice();
    return Status::OK();
  }
  LSMCOL_ASSIGN_OR_RETURN(out->page_,
                          cache_->Fetch(*file_, leaf.first_page + first));
  out->data_ = out->page_.data().SubSlice(offset % page_size, size);
  return Status::OK();
}

Status ComponentReader::ReadLeafUncached(size_t leaf_index,
                                         Buffer* out) const {
  LSMCOL_CHECK(leaf_index < leaves_.size());
  const LeafEntry& leaf = leaves_[leaf_index];
  out->clear();
  if (leaf.payload_size == 0) return Status::OK();
  Buffer page;
  for (uint32_t i = 0; i < leaf.page_count; ++i) {
    LSMCOL_RETURN_NOT_OK(file_->ReadPage(leaf.first_page + i, &page));
    const uint64_t take =
        std::min<uint64_t>(page.size(), leaf.payload_size - out->size());
    out->Append(page.data(), take);
    if (out->size() >= leaf.payload_size) break;
  }
  if (out->size() != leaf.payload_size) {
    return Status::Corruption("short leaf payload: " + file_->path());
  }
  return Status::OK();
}

size_t ComponentReader::LowerBoundLeaf(int64_t key) const {
  size_t lo = 0, hi = leaves_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (leaves_[mid].max_key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status ComponentReader::Destroy() {
  if (destroyed_) return Status::OK();
  cache_->Invalidate(*file_);
  std::string path = file_->path();
  file_.reset();
  destroyed_ = true;
  return RemoveFileIfExists(path, fs_);
}

}  // namespace lsmcol
