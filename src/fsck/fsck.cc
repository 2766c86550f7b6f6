#include "fsck/fsck.h"

#include <cstring>
#include <deque>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "format/bitmap.h"
#include "format/dirent.h"
#include "format/footprint.h"
#include "format/inode.h"
#include "format/superblock.h"
#include "journal/journal.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace raefs {

bool FsckReport::consistent() const {
  for (const auto& f : findings) {
    if (f.severity == FsckSeverity::kFatal) return false;
  }
  return true;
}

std::string FsckReport::summary() const {
  std::ostringstream os;
  os << "fsck: " << findings.size() << " finding(s), " << inodes_in_use
     << " inodes in use (" << files << " files, " << dirs << " dirs, "
     << symlinks << " symlinks), " << blocks_claimed << " blocks claimed";
  for (const auto& f : findings) {
    os << "\n  ["
       << (f.severity == FsckSeverity::kFatal
               ? "FATAL"
               : (f.severity == FsckSeverity::kLeak ? "LEAK" : "NOTE"))
       << "] " << f.what;
  }
  return os.str();
}

namespace {

class Checker {
 public:
  Checker(BlockDevice* dev, const FsckOptions& opts)
      : dev_(dev), level_(opts.level), workers_(opts.workers) {}

  Result<FsckReport> run() {
    RAEFS_TRY_VOID(check_superblock());
    if (!report_.consistent()) return report_;  // cannot trust geometry
    RAEFS_TRY_VOID(load_bitmaps());
    check_metadata_region_bits();
    if (level_ == FsckLevel::kWeak) return report_;

    // pFSCK-style, parallelism only reads ahead: the serial checks below
    // read through a snapshot of the metadata footprint and the journal
    // region, so their findings are identical to a run straight off the
    // device.
    std::unique_ptr<PrefetchedDevice> snapshot;
    if (workers_ > 1) {
      obs::TraceSpan span(obs::kSpanFsckScan, nullptr);
      snapshot = prefetch_metadata(dev_, workers_);
      std::vector<BlockNo> journal(geo_.journal_blocks);
      std::iota(journal.begin(), journal.end(), geo_.journal_start);
      snapshot->fetch(journal);
      dev_ = snapshot.get();
    }

    obs::TraceSpan rs(obs::kSpanFsckReconcile, nullptr);
    RAEFS_TRY_VOID(walk_tree());
    RAEFS_TRY_VOID(check_unreachable_inodes());
    check_bitmap_agreement();
    check_journal();
    return report_;
  }

 private:
  void finding(FsckSeverity sev, std::string what) {
    report_.findings.push_back(FsckFinding{sev, std::move(what)});
  }
  void fatal(std::string what) {
    finding(FsckSeverity::kFatal, std::move(what));
  }

  Result<std::vector<uint8_t>> read(BlockNo b) {
    std::vector<uint8_t> data(kBlockSize);
    RAEFS_TRY_VOID(dev_->read_block(b, data));
    return data;
  }

  Status check_superblock() {
    RAEFS_TRY(auto block, read(0));
    auto sb = Superblock::decode(block);
    if (!sb.ok()) {
      fatal("superblock failed validation");
      return Status::Ok();
    }
    sb_ = sb.value();
    auto geo = sb_.geometry();
    if (!geo.ok()) {
      fatal("superblock geometry inconsistent");
      return Status::Ok();
    }
    geo_ = geo.value();
    if (geo_.total_blocks > dev_->block_count()) {
      fatal("image larger than device");
      return Status::Ok();
    }
    if (sb_.state == FsState::kMounted) {
      finding(FsckSeverity::kNote,
              "unclean mount flag set (journal replay pending)");
    }
    return Status::Ok();
  }

  Status load_bitmaps() {
    block_bitmap_.clear();
    for (uint64_t i = 0; i < geo_.block_bitmap_blocks; ++i) {
      RAEFS_TRY(auto data, read(geo_.block_bitmap_start + i));
      block_bitmap_.insert(block_bitmap_.end(), data.begin(), data.end());
    }
    inode_bitmap_.clear();
    for (uint64_t i = 0; i < geo_.inode_bitmap_blocks; ++i) {
      RAEFS_TRY(auto data, read(geo_.inode_bitmap_start + i));
      inode_bitmap_.insert(inode_bitmap_.end(), data.begin(), data.end());
    }
    return Status::Ok();
  }

  bool block_allocated(BlockNo b) const {
    return ConstBitmapView(block_bitmap_, geo_.total_blocks).test(b);
  }
  bool ino_allocated(Ino ino) const {
    return ConstBitmapView(inode_bitmap_, geo_.inode_count).test(ino - 1);
  }

  void check_metadata_region_bits() {
    for (BlockNo b = 0; b < geo_.data_start; ++b) {
      if (!block_allocated(b)) {
        fatal("metadata block " + std::to_string(b) +
              " not marked allocated in block bitmap");
        return;  // one finding is enough to fail the image
      }
    }
  }

  Result<DiskInode> load_inode(Ino ino) {
    RAEFS_TRY(auto block, read(geo_.inode_block(ino)));
    return inode_from_table_block(block, geo_.inode_slot(ino), geo_);
  }

  /// Claim a block for `owner`; reports overlap and wild pointers.
  bool claim(BlockNo b, Ino owner, const char* role) {
    if (!geo_.is_data_block(b)) {
      fatal("inode " + std::to_string(owner) + " " + role + " pointer " +
            std::to_string(b) + " outside data region");
      return false;
    }
    if (!block_allocated(b)) {
      fatal("inode " + std::to_string(owner) + " uses unallocated block " +
            std::to_string(b));
    }
    auto [it, inserted] = claimed_.emplace(b, owner);
    if (!inserted) {
      fatal("block " + std::to_string(b) + " claimed by both inode " +
            std::to_string(it->second) + " and inode " +
            std::to_string(owner));
      return false;
    }
    ++report_.blocks_claimed;
    return true;
  }

  /// Enumerate the data blocks of `inode`, claiming data + indirect blocks.
  Result<std::vector<BlockNo>> claim_file_blocks(Ino ino,
                                                 const DiskInode& inode) {
    std::vector<BlockNo> data_blocks;
    for (BlockNo b : inode.direct) {
      if (b != 0 && claim(b, ino, "direct")) data_blocks.push_back(b);
    }
    if (inode.indirect != 0 && claim(inode.indirect, ino, "indirect")) {
      RAEFS_TRY(auto iblock, read(inode.indirect));
      for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
        uint64_t ptr = 0;
        std::memcpy(&ptr, iblock.data() + i * 8, sizeof(ptr));
        if (ptr != 0 && claim(ptr, ino, "indirect-entry")) {
          data_blocks.push_back(ptr);
        }
      }
    }
    if (inode.dindirect != 0 && claim(inode.dindirect, ino, "dindirect")) {
      RAEFS_TRY(auto dblock, read(inode.dindirect));
      for (uint32_t l1 = 0; l1 < kPtrsPerBlock; ++l1) {
        uint64_t l1_ptr = 0;
        std::memcpy(&l1_ptr, dblock.data() + l1 * 8, sizeof(l1_ptr));
        if (l1_ptr == 0 || !claim(l1_ptr, ino, "dindirect-l1")) continue;
        RAEFS_TRY(auto l1_block, read(l1_ptr));
        for (uint32_t l2 = 0; l2 < kPtrsPerBlock; ++l2) {
          uint64_t ptr = 0;
          std::memcpy(&ptr, l1_block.data() + l2 * 8, sizeof(ptr));
          if (ptr != 0 && claim(ptr, ino, "dindirect-entry")) {
            data_blocks.push_back(ptr);
          }
        }
      }
    }
    return data_blocks;
  }

  Status walk_tree() {
    std::deque<Ino> queue;
    queue.push_back(kRootIno);
    std::unordered_set<Ino> visited_dirs;
    visited_dirs.insert(kRootIno);
    // Links into each inode from directory entries (root gets a virtual
    // reference since nothing names it).
    std::unordered_map<Ino, uint32_t> dirent_refs;
    std::unordered_map<Ino, uint32_t> subdir_counts;

    while (!queue.empty()) {
      Ino dir_ino = queue.front();
      queue.pop_front();

      if (!ino_allocated(dir_ino)) {
        fatal("directory inode " + std::to_string(dir_ino) +
              " not marked allocated");
        continue;
      }
      auto dir = load_inode(dir_ino);
      if (!dir.ok()) {
        fatal("inode " + std::to_string(dir_ino) + " failed validation");
        continue;
      }
      if (dir.value().type != FileType::kDirectory) {
        fatal("inode " + std::to_string(dir_ino) +
              " referenced as directory but is not one");
        continue;
      }
      ++report_.dirs;
      ++report_.inodes_in_use;

      auto blocks = claim_file_blocks(dir_ino, dir.value());
      if (!blocks.ok()) return blocks.error();
      uint64_t expected_bytes = dir.value().size;
      uint64_t have_blocks = 0;
      for (BlockNo b : blocks.value()) {
        (void)b;
        ++have_blocks;
      }
      if (expected_bytes % kBlockSize != 0) {
        fatal("directory inode " + std::to_string(dir_ino) +
              " size not block-aligned");
      }
      (void)have_blocks;

      for (BlockNo b : blocks.value()) {
        RAEFS_TRY(auto data, read(b));
        auto entries = dirent_scan_block(data);
        if (!entries.ok()) {
          fatal("directory inode " + std::to_string(dir_ino) +
                " has malformed entries in block " + std::to_string(b));
          continue;
        }
        for (const auto& e : entries.value()) {
          if (!geo_.ino_valid(e.ino)) {
            fatal("dirent '" + e.name + "' references invalid ino " +
                  std::to_string(e.ino));
            continue;
          }
          if (!ino_allocated(e.ino)) {
            fatal("dirent '" + e.name + "' references free ino " +
                  std::to_string(e.ino));
            continue;
          }
          auto child = load_inode(e.ino);
          if (!child.ok()) {
            fatal("inode " + std::to_string(e.ino) + " ('" + e.name +
                  "') failed validation");
            continue;
          }
          if (child.value().type != e.type) {
            fatal("dirent '" + e.name + "' type disagrees with inode " +
                  std::to_string(e.ino));
            continue;
          }
          ++dirent_refs[e.ino];
          if (e.type == FileType::kDirectory) {
            ++subdir_counts[dir_ino];
            if (!visited_dirs.insert(e.ino).second) {
              fatal("directory inode " + std::to_string(e.ino) +
                    " reachable via multiple paths (cycle or hard link)");
              continue;
            }
            queue.push_back(e.ino);
          } else if (seen_nondirs_.insert(e.ino).second) {
            auto child_blocks = claim_file_blocks(e.ino, child.value());
            if (!child_blocks.ok()) return child_blocks.error();
            if (child.value().type == FileType::kRegular) {
              ++report_.files;
            } else {
              ++report_.symlinks;
            }
            ++report_.inodes_in_use;
            if (child.value().size > kMaxFileSize) {
              fatal("inode " + std::to_string(e.ino) + " size too large");
            }
          }
        }
      }
    }

    // Link-count verification.
    for (Ino dir_ino : visited_dirs) {
      auto dir = load_inode(dir_ino);
      if (!dir.ok()) continue;
      uint32_t expect = 2 + subdir_counts[dir_ino];
      if (dir.value().nlink != expect) {
        fatal("directory inode " + std::to_string(dir_ino) + " nlink " +
              std::to_string(dir.value().nlink) + " != expected " +
              std::to_string(expect));
      }
    }
    for (Ino ino : seen_nondirs_) {
      auto node = load_inode(ino);
      if (!node.ok()) continue;
      if (node.value().nlink != dirent_refs[ino]) {
        fatal("inode " + std::to_string(ino) + " nlink " +
              std::to_string(node.value().nlink) + " != dirent refs " +
              std::to_string(dirent_refs[ino]));
      }
    }
    reachable_ = std::move(visited_dirs);
    for (Ino ino : seen_nondirs_) reachable_.insert(ino);
    return Status::Ok();
  }

  Status check_unreachable_inodes() {
    for (Ino ino = 1; ino <= geo_.inode_count; ++ino) {
      bool allocated = ino_allocated(ino);
      if (!allocated) {
        auto node = load_inode(ino);
        if (node.ok() && node.value().in_use()) {
          fatal("inode " + std::to_string(ino) +
                " in use but not marked allocated");
        }
        continue;
      }
      if (reachable_.count(ino)) continue;
      auto node = load_inode(ino);
      if (!node.ok()) {
        fatal("allocated inode " + std::to_string(ino) +
              " failed validation");
        continue;
      }
      if (!node.value().in_use()) {
        fatal("inode " + std::to_string(ino) +
              " marked allocated but table slot is free");
        continue;
      }
      finding(FsckSeverity::kLeak,
              "orphan inode " + std::to_string(ino) + " (allocated, in use, "
              "but unreachable from the root)");
      // Claim its blocks anyway so they do not double as bitmap leaks.
      auto blocks = claim_file_blocks(ino, node.value());
      if (!blocks.ok()) return blocks.error();
    }
    return Status::Ok();
  }

  void check_bitmap_agreement() {
    for (BlockNo b = geo_.data_start; b < geo_.total_blocks; ++b) {
      bool allocated = block_allocated(b);
      bool claimed = claimed_.count(b) > 0;
      if (allocated && !claimed) {
        finding(FsckSeverity::kLeak,
                "block " + std::to_string(b) +
                " marked allocated but owned by no inode");
      } else if (!allocated && claimed) {
        // Already reported as "uses unallocated block" during claim().
      }
    }
  }

  void check_journal() {
    auto seqs = Journal::scan(dev_, geo_);
    if (!seqs.ok()) {
      fatal("journal failed validation (bad header or destroyed "
            "committed transactions)");
      return;
    }
    report_.committed_journal_txns = seqs.value().size();
    if (!seqs.value().empty() && sb_.state == FsState::kClean) {
      fatal("cleanly-unmounted image has unreplayed journal transactions");
    }
  }

  BlockDevice* dev_;
  FsckLevel level_;
  uint32_t workers_;
  Superblock sb_;
  Geometry geo_;
  std::vector<uint8_t> block_bitmap_;
  std::vector<uint8_t> inode_bitmap_;
  std::unordered_map<BlockNo, Ino> claimed_;
  std::unordered_set<Ino> seen_nondirs_;
  std::unordered_set<Ino> reachable_;
  FsckReport report_;
};

}  // namespace

Result<FsckReport> fsck(BlockDevice* dev, FsckLevel level) {
  return fsck(dev, FsckOptions{level, 1});
}

Result<FsckReport> fsck(BlockDevice* dev, const FsckOptions& opts) {
  Checker checker(dev, opts);
  return checker.run();
}

}  // namespace raefs
