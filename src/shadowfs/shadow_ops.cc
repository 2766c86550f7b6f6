// ShadowFs operations. Each mirrors the BaseFs implementation's semantics
// and error-code order exactly (paper §3.3: API-level output must be
// equivalent), but with the simplest possible sequential logic: path walks
// always start from the root, directories are scanned linearly, nothing is
// cached, and every structure is validated as it is touched.
#include <algorithm>
#include <cstring>

#include "common/panic.h"
#include "common/path.h"
#include "shadowfs/shadow_fs.h"

namespace raefs {

namespace {
constexpr uint32_t kMaxNlink = 65000;
}

// ---------------------------------------------------------------------------
// resolution
// ---------------------------------------------------------------------------

Result<std::optional<DirEntry>> ShadowFs::dir_find(const DiskInode& dir,
                                                   std::string_view name) {
  DiskInode scan = dir;
  uint64_t nblocks = dir.size_blocks();
  for (uint64_t fb = 0; fb < nblocks; ++fb) {
    RAEFS_TRY(BlockNo b, map_block(&scan, fb, /*alloc=*/false));
    if (b == 0) continue;
    auto data = read_block(b);
    auto found = dirent_find_in_block(data, name);
    // Unlike the base (which oopses), the shadow refuses via a checked
    // failure: a malformed dirent means the image cannot be trusted.
    SHADOW_CHECK(found.ok(), "malformed directory entry in image");
    if (found.value().has_value()) return found.value();
  }
  return std::optional<DirEntry>();
}

Result<Ino> ShadowFs::resolve(std::string_view path) {
  RAEFS_TRY(auto parts, split_path(path));
  Ino cur = kRootIno;
  for (const auto& comp : parts) {
    DiskInode node = get_inode(cur);
    if (node.type != FileType::kDirectory) return Errno::kNotDir;
    RAEFS_TRY(auto entry, dir_find(node, comp));
    if (!entry) return Errno::kNoEnt;
    cur = entry->ino;
  }
  return cur;
}

Result<ShadowFs::ParentRef> ShadowFs::resolve_parent(std::string_view path) {
  RAEFS_TRY(auto parts, split_path(path));
  if (parts.empty()) return Errno::kInval;
  std::string leaf = parts.back();
  parts.pop_back();
  RAEFS_TRY(Ino parent, resolve(join_path(parts)));
  DiskInode node = get_inode(parent);
  if (node.type != FileType::kDirectory) return Errno::kNotDir;
  return ParentRef{parent, std::move(leaf)};
}

Result<Ino> ShadowFs::lookup(std::string_view path) { return resolve(path); }

// ---------------------------------------------------------------------------
// directory maintenance
// ---------------------------------------------------------------------------

Status ShadowFs::dir_insert(DiskInode* dir, const DirEntry& entry) {
  check(name_valid(entry.name), "inserting invalid name");
  uint64_t nblocks = dir->size_blocks();
  for (uint64_t fb = 0; fb < nblocks; ++fb) {
    RAEFS_TRY(BlockNo b, map_block(dir, fb, /*alloc=*/false));
    if (b == 0) continue;
    auto data = read_block(b);
    if (checks_level_ == ShadowCheckLevel::kExtensive) {
      // No duplicate may already exist: an insert over a duplicate would
      // silently shadow an entry.
      auto dup = dirent_find_in_block(data, entry.name);
      check_extensive(dup.ok() && !dup.value().has_value(),
                      "duplicate directory entry on insert");
    }
    if (auto slot = dirent_free_slot(data)) {
      modify_block(b, BlockClass::kDirMeta, [&](std::span<uint8_t> blk) {
        dirent_encode(blk, *slot, entry);
      });
      return Status::Ok();
    }
  }
  RAEFS_TRY(BlockNo b, map_block(dir, nblocks, /*alloc=*/true));
  // Re-class the freshly allocated block as directory metadata.
  modify_block(b, BlockClass::kDirMeta,
               [&](std::span<uint8_t> blk) { dirent_encode(blk, 0, entry); });
  dir->size = (nblocks + 1) * kBlockSize;
  return Status::Ok();
}

Status ShadowFs::dir_remove(DiskInode* dir, std::string_view name) {
  uint64_t nblocks = dir->size_blocks();
  for (uint64_t fb = 0; fb < nblocks; ++fb) {
    RAEFS_TRY(BlockNo b, map_block(dir, fb, /*alloc=*/false));
    if (b == 0) continue;
    auto data = read_block(b);
    for (uint32_t slot = 0; slot < kDirentsPerBlock; ++slot) {
      auto e = dirent_decode(data, slot);
      SHADOW_CHECK(e.ok(), "malformed directory entry in image");
      if (e.value().ino != kInvalidIno && e.value().name == name) {
        modify_block(b, BlockClass::kDirMeta, [&](std::span<uint8_t> blk) {
          dirent_encode(blk, slot, DirEntry{});
        });
        return Status::Ok();
      }
    }
  }
  return Errno::kNoEnt;
}

Result<bool> ShadowFs::dir_empty(const DiskInode& dir) {
  DiskInode scan = dir;
  uint64_t nblocks = dir.size_blocks();
  for (uint64_t fb = 0; fb < nblocks; ++fb) {
    RAEFS_TRY(BlockNo b, map_block(&scan, fb, /*alloc=*/false));
    if (b == 0) continue;
    auto data = read_block(b);
    auto entries = dirent_scan_block(data);
    SHADOW_CHECK(entries.ok(), "malformed directory entry in image");
    if (!entries.value().empty()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// create family
// ---------------------------------------------------------------------------

Result<Ino> ShadowFs::create_common(std::string_view path, uint16_t mode,
                                    FileType type,
                                    std::string_view symlink_target,
                                    Nanos stamp, Ino forced_ino) {
  RAEFS_TRY(ParentRef ref, resolve_parent(path));
  if (!name_valid(ref.leaf)) {
    return ref.leaf.size() > kMaxNameLen ? Errno::kNameTooLong : Errno::kInval;
  }
  DiskInode parent = get_inode(ref.parent);
  RAEFS_TRY(auto existing, dir_find(parent, ref.leaf));
  if (existing) return Errno::kExist;
  if (type == FileType::kSymlink &&
      (symlink_target.empty() || symlink_target.size() > kBlockSize)) {
    return Errno::kInval;
  }

  RAEFS_TRY(Ino child, alloc_inode(type, mode, stamp, forced_ino));

  if (type == FileType::kSymlink) {
    DiskInode child_inode = get_inode(child);
    auto mapped = map_block(&child_inode, 0, /*alloc=*/true);
    if (!mapped.ok()) {
      free_inode(child);
      return mapped.error();
    }
    modify_block(mapped.value(), BlockClass::kFileData,
                 [&](std::span<uint8_t> blk) {
                   std::memcpy(blk.data(), symlink_target.data(),
                               symlink_target.size());
                 });
    child_inode.size = symlink_target.size();
    put_inode(child, child_inode);
  }

  DirEntry entry;
  entry.ino = child;
  entry.type = type;
  entry.name = ref.leaf;
  Status inserted = dir_insert(&parent, entry);
  if (!inserted.ok()) {
    DiskInode child_inode = get_inode(child);
    (void)free_file_blocks(&child_inode, 0);
    free_inode(child);
    return inserted.error();
  }
  if (type == FileType::kDirectory) {
    check(parent.nlink < kMaxNlink, "parent nlink overflow");
    ++parent.nlink;
  }
  parent.mtime = stamp;
  put_inode(ref.parent, parent);
  return child;
}

Result<Ino> ShadowFs::create(std::string_view path, uint16_t mode, Nanos stamp,
                             Ino forced_ino) {
  return create_common(path, mode, FileType::kRegular, {}, stamp, forced_ino);
}

Result<Ino> ShadowFs::mkdir(std::string_view path, uint16_t mode, Nanos stamp,
                            Ino forced_ino) {
  return create_common(path, mode, FileType::kDirectory, {}, stamp,
                       forced_ino);
}

Result<Ino> ShadowFs::symlink(std::string_view linkpath,
                              std::string_view target, Nanos stamp,
                              Ino forced_ino) {
  return create_common(linkpath, 0777, FileType::kSymlink, target, stamp,
                       forced_ino);
}

// ---------------------------------------------------------------------------
// unlink / rmdir / rename / link
// ---------------------------------------------------------------------------

Status ShadowFs::unlink(std::string_view path, Nanos stamp) {
  RAEFS_TRY(ParentRef ref, resolve_parent(path));
  DiskInode parent = get_inode(ref.parent);
  RAEFS_TRY(auto entry, dir_find(parent, ref.leaf));
  if (!entry) return Errno::kNoEnt;
  if (entry->type == FileType::kDirectory) return Errno::kIsDir;

  DiskInode child = get_inode(entry->ino);
  RAEFS_TRY_VOID(dir_remove(&parent, ref.leaf));
  parent.mtime = stamp;
  put_inode(ref.parent, parent);

  check(child.nlink > 0, "nlink underflow on unlink");
  --child.nlink;
  if (child.nlink == 0) {
    RAEFS_TRY_VOID(free_file_blocks(&child, 0));
    free_inode(entry->ino);
  } else {
    put_inode(entry->ino, child);
  }
  return Status::Ok();
}

Status ShadowFs::rmdir(std::string_view path, Nanos stamp) {
  RAEFS_TRY(ParentRef ref, resolve_parent(path));
  DiskInode parent = get_inode(ref.parent);
  RAEFS_TRY(auto entry, dir_find(parent, ref.leaf));
  if (!entry) return Errno::kNoEnt;
  if (entry->type != FileType::kDirectory) return Errno::kNotDir;

  DiskInode child = get_inode(entry->ino);
  RAEFS_TRY(bool empty, dir_empty(child));
  if (!empty) return Errno::kNotEmpty;

  RAEFS_TRY_VOID(dir_remove(&parent, ref.leaf));
  check(parent.nlink > 2, "parent nlink underflow on rmdir");
  --parent.nlink;
  parent.mtime = stamp;
  put_inode(ref.parent, parent);

  RAEFS_TRY_VOID(free_file_blocks(&child, 0));
  free_inode(entry->ino);
  return Status::Ok();
}

Status ShadowFs::rename(std::string_view src, std::string_view dst,
                        Nanos stamp) {
  RAEFS_TRY(auto src_parts, split_path(src));
  RAEFS_TRY(auto dst_parts, split_path(dst));
  std::string src_canon = join_path(src_parts);
  std::string dst_canon = join_path(dst_parts);
  if (src_canon == "/" || dst_canon == "/") return Errno::kInval;
  if (src_canon == dst_canon) return Status::Ok();
  if (path_is_ancestor(src_canon, dst_canon)) return Errno::kInval;

  RAEFS_TRY(ParentRef src_ref, resolve_parent(src_canon));
  RAEFS_TRY(ParentRef dst_ref, resolve_parent(dst_canon));
  if (!name_valid(dst_ref.leaf)) {
    return dst_ref.leaf.size() > kMaxNameLen ? Errno::kNameTooLong
                                             : Errno::kInval;
  }

  DiskInode src_parent = get_inode(src_ref.parent);
  RAEFS_TRY(auto src_entry, dir_find(src_parent, src_ref.leaf));
  if (!src_entry) return Errno::kNoEnt;

  DiskInode dst_parent = get_inode(dst_ref.parent);
  RAEFS_TRY(auto dst_entry, dir_find(dst_parent, dst_ref.leaf));

  if (dst_entry) {
    if (dst_entry->ino == src_entry->ino) return Status::Ok();
    if (dst_entry->type == FileType::kDirectory) {
      if (src_entry->type != FileType::kDirectory) return Errno::kIsDir;
      DiskInode victim = get_inode(dst_entry->ino);
      RAEFS_TRY(bool empty, dir_empty(victim));
      if (!empty) return Errno::kNotEmpty;
      RAEFS_TRY_VOID(dir_remove(&dst_parent, dst_ref.leaf));
      --dst_parent.nlink;
      RAEFS_TRY_VOID(free_file_blocks(&victim, 0));
      free_inode(dst_entry->ino);
    } else {
      if (src_entry->type == FileType::kDirectory) return Errno::kNotDir;
      DiskInode victim = get_inode(dst_entry->ino);
      RAEFS_TRY_VOID(dir_remove(&dst_parent, dst_ref.leaf));
      check(victim.nlink > 0, "nlink underflow on rename overwrite");
      --victim.nlink;
      if (victim.nlink == 0) {
        RAEFS_TRY_VOID(free_file_blocks(&victim, 0));
        free_inode(dst_entry->ino);
      } else {
        put_inode(dst_entry->ino, victim);
      }
    }
    // The parents' images changed on disk; re-read below.
  }

  if (src_ref.parent == dst_ref.parent) {
    DiskInode parent = get_inode(src_ref.parent);
    RAEFS_TRY_VOID(dir_remove(&parent, src_ref.leaf));
    DirEntry moved = *src_entry;
    moved.name = dst_ref.leaf;
    RAEFS_TRY_VOID(dir_insert(&parent, moved));
    parent.mtime = stamp;
    put_inode(src_ref.parent, parent);
  } else {
    DiskInode sp = get_inode(src_ref.parent);
    DiskInode dp = get_inode(dst_ref.parent);
    RAEFS_TRY_VOID(dir_remove(&sp, src_ref.leaf));
    DirEntry moved = *src_entry;
    moved.name = dst_ref.leaf;
    RAEFS_TRY_VOID(dir_insert(&dp, moved));
    if (src_entry->type == FileType::kDirectory) {
      check(sp.nlink > 2, "src parent nlink underflow on rename");
      --sp.nlink;
      ++dp.nlink;
    }
    sp.mtime = stamp;
    dp.mtime = stamp;
    put_inode(src_ref.parent, sp);
    put_inode(dst_ref.parent, dp);
  }
  return Status::Ok();
}

Status ShadowFs::link(std::string_view existing, std::string_view newpath,
                      Nanos stamp) {
  RAEFS_TRY(Ino target, resolve(existing));
  DiskInode node = get_inode(target);
  if (node.type == FileType::kDirectory) return Errno::kIsDir;
  if (node.nlink >= kMaxNlink) return Errno::kMLink;

  RAEFS_TRY(ParentRef ref, resolve_parent(newpath));
  if (!name_valid(ref.leaf)) {
    return ref.leaf.size() > kMaxNameLen ? Errno::kNameTooLong : Errno::kInval;
  }
  DiskInode parent = get_inode(ref.parent);
  RAEFS_TRY(auto entry, dir_find(parent, ref.leaf));
  if (entry) return Errno::kExist;

  DirEntry new_entry;
  new_entry.ino = target;
  new_entry.type = node.type;
  new_entry.name = ref.leaf;
  RAEFS_TRY_VOID(dir_insert(&parent, new_entry));
  parent.mtime = stamp;
  put_inode(ref.parent, parent);

  ++node.nlink;
  node.ctime = stamp;
  put_inode(target, node);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// readdir / stat / readlink
// ---------------------------------------------------------------------------

Result<std::vector<DirEntry>> ShadowFs::readdir(std::string_view path) {
  RAEFS_TRY(Ino ino, resolve(path));
  DiskInode dir = get_inode(ino);
  if (dir.type != FileType::kDirectory) return Errno::kNotDir;

  std::vector<DirEntry> out;
  uint64_t nblocks = dir.size_blocks();
  for (uint64_t fb = 0; fb < nblocks; ++fb) {
    RAEFS_TRY(BlockNo b, map_block(&dir, fb, /*alloc=*/false));
    if (b == 0) continue;
    auto data = read_block(b);
    auto entries = dirent_scan_block(data);
    SHADOW_CHECK(entries.ok(), "malformed directory entry in image");
    for (auto& e : entries.value()) out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
  return out;
}

Result<StatResult> ShadowFs::stat(std::string_view path) {
  RAEFS_TRY(Ino ino, resolve(path));
  DiskInode node = get_inode(ino);
  return StatResult{ino, node.type, node.size, node.nlink, node.mode,
                    node.generation};
}

Result<StatResult> ShadowFs::stat_ino(Ino ino) {
  if (!geo_.ino_valid(ino)) return Errno::kInval;
  DiskInode node = get_inode(ino);
  if (!node.in_use()) return Errno::kNoEnt;
  return StatResult{ino, node.type, node.size, node.nlink, node.mode,
                    node.generation};
}

Result<std::string> ShadowFs::readlink(std::string_view path) {
  RAEFS_TRY(Ino ino, resolve(path));
  DiskInode node = get_inode(ino);
  if (node.type != FileType::kSymlink) return Errno::kInval;
  RAEFS_TRY(BlockNo b, map_block(&node, 0, /*alloc=*/false));
  if (b == 0 || node.size == 0 || node.size > kBlockSize) {
    return Errno::kCorrupt;
  }
  auto data = read_block(b);
  return std::string(reinterpret_cast<const char*>(data.data()), node.size);
}

// ---------------------------------------------------------------------------
// data ops
// ---------------------------------------------------------------------------

Result<std::vector<uint8_t>> ShadowFs::read(Ino ino, uint64_t gen, FileOff off,
                                            uint64_t len) {
  if (!geo_.ino_valid(ino)) return Errno::kInval;
  DiskInode node = get_inode(ino);
  if (!node.in_use()) return Errno::kBadFd;
  if (gen != 0 && gen != node.generation) return Errno::kBadFd;
  if (node.type == FileType::kDirectory) return Errno::kIsDir;

  if (off >= node.size) return std::vector<uint8_t>{};
  len = std::min<uint64_t>(len, node.size - off);
  std::vector<uint8_t> out(len);
  uint64_t done = 0;
  while (done < len) {
    uint64_t pos = off + done;
    uint64_t fb = pos / kBlockSize;
    uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    uint64_t chunk = std::min<uint64_t>(len - done, kBlockSize - in_block);
    RAEFS_TRY(BlockNo b, map_block(&node, fb, /*alloc=*/false));
    if (b == 0) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      auto data = read_block(b);
      std::memcpy(out.data() + done, data.data() + in_block, chunk);
    }
    done += chunk;
  }
  return out;
}

Result<uint64_t> ShadowFs::write(Ino ino, uint64_t gen, FileOff off,
                                 std::span<const uint8_t> data, Nanos stamp) {
  if (!geo_.ino_valid(ino)) return Errno::kInval;
  if (off + data.size() > kMaxFileSize) return Errno::kFBig;

  DiskInode node = get_inode(ino);
  if (!node.in_use()) return Errno::kBadFd;
  if (gen != 0 && gen != node.generation) return Errno::kBadFd;
  if (node.type != FileType::kRegular) return Errno::kIsDir;

  uint64_t done = 0;
  Errno failure = Errno::kOk;
  while (done < data.size()) {
    uint64_t pos = off + done;
    uint64_t fb = pos / kBlockSize;
    uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    uint64_t chunk =
        std::min<uint64_t>(data.size() - done, kBlockSize - in_block);
    auto mapped = map_block(&node, fb, /*alloc=*/true);
    if (!mapped.ok()) {
      failure = mapped.error();
      break;
    }
    modify_block(mapped.value(), BlockClass::kFileData,
                 [&](std::span<uint8_t> blk) {
                   std::memcpy(blk.data() + in_block, data.data() + done,
                               chunk);
                 });
    done += chunk;
  }

  if (done == 0 && failure != Errno::kOk) return failure;
  if (done > 0) {
    node.size = std::max<uint64_t>(node.size, off + done);
    node.mtime = stamp;
    put_inode(ino, node);
  }
  return done;
}

Status ShadowFs::truncate(Ino ino, uint64_t gen, uint64_t new_size,
                          Nanos stamp) {
  if (!geo_.ino_valid(ino)) return Errno::kInval;
  if (new_size > kMaxFileSize) return Errno::kFBig;

  DiskInode node = get_inode(ino);
  if (!node.in_use()) return Errno::kBadFd;
  if (gen != 0 && gen != node.generation) return Errno::kBadFd;
  if (node.type != FileType::kRegular) return Errno::kIsDir;

  if (new_size < node.size) {
    uint64_t keep = (new_size + kBlockSize - 1) / kBlockSize;
    RAEFS_TRY_VOID(free_file_blocks(&node, keep));
    if (new_size % kBlockSize != 0) {
      RAEFS_TRY(BlockNo b, map_block(&node, new_size / kBlockSize,
                                     /*alloc=*/false));
      if (b != 0) {
        uint32_t from = static_cast<uint32_t>(new_size % kBlockSize);
        modify_block(b, BlockClass::kFileData, [&](std::span<uint8_t> blk) {
          std::memset(blk.data() + from, 0, kBlockSize - from);
        });
      }
    }
  }
  node.size = new_size;
  node.mtime = stamp;
  put_inode(ino, node);
  return Status::Ok();
}

}  // namespace raefs
