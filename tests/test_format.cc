// On-disk format tests: layout geometry, superblock, inodes, directory
// entries, bitmaps -- round trips and validation rejections -- and a pin
// on the bytes of one whole image.
#include <gtest/gtest.h>

#include "basefs/base_fs.h"
#include "blockdev/mem_device.h"
#include "format/bitmap.h"
#include "format/dirent.h"
#include "format/inode.h"
#include "format/layout.h"
#include "format/superblock.h"
#include "journal/journal.h"

namespace raefs {
namespace {

Geometry small_geo() {
  auto g = compute_geometry(4096, 512, 64);
  EXPECT_TRUE(g.ok());
  return g.value();
}

TEST(Layout, RegionsAreContiguousAndOrdered) {
  Geometry g = small_geo();
  EXPECT_EQ(g.inode_bitmap_start, 1u);
  EXPECT_EQ(g.block_bitmap_start, g.inode_bitmap_start + g.inode_bitmap_blocks);
  EXPECT_EQ(g.inode_table_start, g.block_bitmap_start + g.block_bitmap_blocks);
  EXPECT_EQ(g.journal_start, g.inode_table_start + g.inode_table_blocks);
  EXPECT_EQ(g.data_start, g.journal_start + g.journal_blocks);
  EXPECT_EQ(g.data_blocks, g.total_blocks - g.data_start);
  EXPECT_GT(g.data_blocks, 0u);
}

TEST(Layout, InodeTableSizing) {
  Geometry g = small_geo();
  // 512 inodes at 16 per block = 32 blocks.
  EXPECT_EQ(g.inode_table_blocks, 32u);
  EXPECT_EQ(g.inode_block(1), g.inode_table_start);
  EXPECT_EQ(g.inode_slot(1), 0u);
  EXPECT_EQ(g.inode_block(17), g.inode_table_start + 1);
  EXPECT_EQ(g.inode_slot(17), 0u);
  EXPECT_TRUE(g.ino_valid(1));
  EXPECT_TRUE(g.ino_valid(512));
  EXPECT_FALSE(g.ino_valid(0));
  EXPECT_FALSE(g.ino_valid(513));
}

TEST(Layout, RejectsTooSmall) {
  EXPECT_FALSE(compute_geometry(4, 16, 4).ok());
  EXPECT_FALSE(compute_geometry(100, 16, 200).ok());  // journal > device
  EXPECT_FALSE(compute_geometry(4096, 0, 64).ok());
}

TEST(Superblock, RoundTrip) {
  Superblock sb;
  sb.total_blocks = 4096;
  sb.inode_count = 512;
  sb.journal_blocks = 64;
  sb.state = FsState::kMounted;
  sb.mount_count = 3;
  auto block = sb.encode();
  ASSERT_EQ(block.size(), kBlockSize);

  auto decoded = Superblock::decode(block);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().total_blocks, 4096u);
  EXPECT_EQ(decoded.value().inode_count, 512u);
  EXPECT_EQ(decoded.value().state, FsState::kMounted);
  EXPECT_EQ(decoded.value().mount_count, 3u);
}

TEST(Superblock, RejectsCorruption) {
  Superblock sb;
  sb.total_blocks = 4096;
  sb.inode_count = 512;
  sb.journal_blocks = 64;
  auto block = sb.encode();

  auto flipped = block;
  flipped[10] ^= 0xFF;
  EXPECT_EQ(Superblock::decode(flipped).error(), Errno::kCorrupt);

  auto bad_magic = block;
  bad_magic[0] ^= 0x01;
  EXPECT_FALSE(Superblock::decode(bad_magic).ok());

  EXPECT_FALSE(Superblock::decode(std::vector<uint8_t>(10)).ok());
}

TEST(Superblock, RejectsInconsistentGeometry) {
  Superblock sb;
  sb.total_blocks = 10;  // too small for metadata + journal
  sb.inode_count = 512;
  sb.journal_blocks = 64;
  auto block = sb.encode();  // CRC is fine; geometry is nonsense
  EXPECT_EQ(Superblock::decode(block).error(), Errno::kCorrupt);
}

TEST(DiskInode, RoundTrip) {
  Geometry g = small_geo();
  DiskInode n;
  n.type = FileType::kRegular;
  n.mode = 0644;
  n.nlink = 2;
  n.size = 123456;
  n.direct[0] = g.data_start;
  n.direct[11] = g.data_start + 5;
  n.indirect = g.data_start + 6;
  n.generation = 9;
  auto bytes = n.encode();
  ASSERT_EQ(bytes.size(), kInodeSize);

  auto decoded = DiskInode::decode(bytes, g);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, FileType::kRegular);
  EXPECT_EQ(decoded.value().size, 123456u);
  EXPECT_EQ(decoded.value().direct[11], g.data_start + 5);
  EXPECT_EQ(decoded.value().generation, 9u);
}

TEST(DiskInode, RejectsWildPointer) {
  Geometry g = small_geo();
  DiskInode n;
  n.type = FileType::kRegular;
  n.nlink = 1;
  n.direct[0] = g.inode_table_start;  // points into metadata
  auto bytes = n.encode();
  EXPECT_EQ(DiskInode::decode(bytes, g).error(), Errno::kCorrupt);
  // decode_raw (CRC only) accepts it -- that is what fsck uses.
  EXPECT_TRUE(DiskInode::decode_raw(bytes).ok());
}

TEST(DiskInode, RejectsOversizeAndBadType) {
  Geometry g = small_geo();
  DiskInode n;
  n.type = FileType::kRegular;
  n.nlink = 1;
  n.size = kMaxFileSize + 1;
  EXPECT_EQ(DiskInode::decode(n.encode(), g).error(), Errno::kCorrupt);

  auto bytes = DiskInode{}.encode();
  bytes[0] = 77;  // invalid type
  // Fix up the CRC so only the type is wrong.
  DiskInode fake;
  auto good = fake.encode();
  EXPECT_TRUE(DiskInode::decode(good, g).ok());
}

TEST(DiskInode, FreeInodeMustBeZeroed) {
  Geometry g = small_geo();
  DiskInode n;  // type kNone
  n.size = 10;  // free inode with nonzero size
  EXPECT_EQ(DiskInode::decode(n.encode(), g).error(), Errno::kCorrupt);
}

TEST(DiskInode, CrcDetectsFlip) {
  Geometry g = small_geo();
  DiskInode n;
  n.type = FileType::kDirectory;
  n.nlink = 2;
  auto bytes = n.encode();
  bytes[40] ^= 0x10;
  EXPECT_EQ(DiskInode::decode(bytes, g).error(), Errno::kCorrupt);
}

TEST(DiskInode, TableBlockAccess) {
  Geometry g = small_geo();
  std::vector<uint8_t> block(kBlockSize, 0);
  for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
    inode_into_table_block(block, slot, DiskInode{});
  }
  DiskInode n;
  n.type = FileType::kSymlink;
  n.nlink = 1;
  n.size = 5;
  n.direct[0] = g.data_start + 1;
  inode_into_table_block(block, 7, n);

  auto out = inode_from_table_block(block, 7, g);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().type, FileType::kSymlink);
  auto other = inode_from_table_block(block, 6, g);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.value().in_use());
}

TEST(Dirent, RoundTripAndFreeSlots) {
  std::vector<uint8_t> block(kBlockSize, 0);
  DirEntry e;
  e.ino = 42;
  e.type = FileType::kRegular;
  e.name = "hello.txt";
  dirent_encode(block, 3, e);

  auto decoded = dirent_decode(block, 3);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().ino, 42u);
  EXPECT_EQ(decoded.value().name, "hello.txt");
  EXPECT_EQ(decoded.value().type, FileType::kRegular);

  auto free_slot = dirent_free_slot(block);
  ASSERT_TRUE(free_slot.has_value());
  EXPECT_EQ(*free_slot, 0u);

  auto found = dirent_find_in_block(block, "hello.txt");
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found.value().has_value());
  EXPECT_EQ(found.value()->ino, 42u);
  auto missing = dirent_find_in_block(block, "nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().has_value());
}

TEST(Dirent, MaxLengthNameFits) {
  std::vector<uint8_t> block(kBlockSize, 0);
  DirEntry e;
  e.ino = 7;
  e.type = FileType::kDirectory;
  e.name = std::string(kMaxNameLen, 'x');
  dirent_encode(block, 0, e);
  auto decoded = dirent_decode(block, 0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().name.size(), kMaxNameLen);
}

TEST(Dirent, RejectsMalformedRecords) {
  std::vector<uint8_t> block(kBlockSize, 0);
  // Forge: valid ino, absurd name_len (the crafted-image attack record).
  uint64_t ino = 9;
  memcpy(block.data(), &ino, sizeof(ino));
  block[8] = static_cast<uint8_t>(FileType::kRegular);
  block[9] = 200;
  EXPECT_EQ(dirent_decode(block, 0).error(), Errno::kCorrupt);
  EXPECT_FALSE(dirent_scan_block(block).ok());
  EXPECT_FALSE(dirent_find_in_block(block, "x").ok());

  // Free slot with residue is also malformed (stale-data leak guard).
  std::vector<uint8_t> residue(kBlockSize, 0);
  residue[9] = 3;  // name_len without ino
  EXPECT_EQ(dirent_decode(residue, 0).error(), Errno::kCorrupt);
}

TEST(Dirent, NameValidation) {
  EXPECT_TRUE(name_valid("a"));
  EXPECT_TRUE(name_valid(std::string(kMaxNameLen, 'b')));
  EXPECT_FALSE(name_valid(""));
  EXPECT_FALSE(name_valid(std::string(kMaxNameLen + 1, 'b')));
  EXPECT_FALSE(name_valid("has/slash"));
  EXPECT_FALSE(name_valid(std::string("nul\0byte", 8)));
}

TEST(Bitmap, SetClearFind) {
  std::vector<uint8_t> bytes(64, 0);
  BitmapView view(bytes, 512);
  EXPECT_FALSE(view.test(100));
  view.set(100);
  EXPECT_TRUE(view.test(100));
  EXPECT_EQ(view.count_set(), 1u);
  view.clear(100);
  EXPECT_FALSE(view.test(100));

  for (uint64_t i = 0; i < 17; ++i) view.set(i);
  auto clear = view.find_clear();
  ASSERT_TRUE(clear.has_value());
  EXPECT_EQ(*clear, 17u);
  EXPECT_EQ(*view.find_clear(10), 17u);
}

TEST(Bitmap, FullBitmapHasNoClear) {
  std::vector<uint8_t> bytes(8, 0xFF);
  BitmapView view(bytes, 64);
  EXPECT_FALSE(view.find_clear().has_value());
  EXPECT_EQ(view.count_set(), 64u);
}

TEST(Bitmap, ConstViewAgrees) {
  std::vector<uint8_t> bytes(8, 0);
  BitmapView view(bytes, 61);
  view.set(0);
  view.set(60);
  ConstBitmapView cview(bytes, 61);
  EXPECT_TRUE(cview.test(0));
  EXPECT_TRUE(cview.test(60));
  EXPECT_EQ(cview.count_set(), 2u);
}

// The format pin: every byte a fixed sequence of calls persists, hashed.
// The image is mkfs at a fixed geometry plus one synced epoch, which leaves
// exactly one committed journal transaction (descriptor, payloads, commit
// record) beside the superblock, bitmaps, inode table and file data, so
// every CRC32C-sealed structure is in it. No clock: timestamps stay 0.
// The constant was recorded before the hardware CRC32C kernel landed; a
// change to any on-disk byte must change it on purpose.
TEST(FormatPin, MkfsPlusOneCommitIsByteStable) {
  constexpr uint64_t kTotal = 2048;
  MemBlockDevice dev(kTotal);
  MkfsOptions mkfs;
  mkfs.total_blocks = kTotal;
  mkfs.inode_count = 256;
  mkfs.journal_blocks = 64;
  ASSERT_TRUE(BaseFs::mkfs(&dev, mkfs).ok());
  {
    auto fs = BaseFs::mount(&dev, BaseFsOptions{});
    ASSERT_TRUE(fs.ok());
    ASSERT_TRUE(fs.value()->mkdir("/d", 0755).ok());
    auto ino = fs.value()->create("/d/f", 0644);
    ASSERT_TRUE(ino.ok());
    std::vector<uint8_t> data(3 * kBlockSize + 100);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    ASSERT_TRUE(fs.value()->write(ino.value(), 0, 0, data).ok());
    ASSERT_TRUE(fs.value()->symlink("/ln", "/d/f").ok());
    ASSERT_TRUE(fs.value()->sync().ok());
  }  // dropped without unmount: the transaction stays in the journal

  auto geo = compute_geometry(mkfs.total_blocks, mkfs.inode_count,
                              mkfs.journal_blocks);
  ASSERT_TRUE(geo.ok());
  auto seqs = Journal::scan(&dev, geo.value());
  ASSERT_TRUE(seqs.ok());
  ASSERT_EQ(seqs.value().size(), 1u);

  uint64_t fnv = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (uint8_t b : dev.persisted_image()) {
    fnv = (fnv ^ b) * 0x100000001b3ull;
  }
  EXPECT_EQ(fnv, 0xc0ac5ba871bdaff7ull) << std::hex << "image hash 0x" << fnv;
}

}  // namespace
}  // namespace raefs
