// Ref-counted segment/chain buffer (netsim/iobuf.h): refcount lifecycle,
// zero-copy vs copying appends, consume/copy_out, and the writable-tail
// rule that keeps shared bytes immutable.
#include "netsim/iobuf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace hermes::netsim {
namespace {

TEST(IoSegment, AllocAppendAndRefCounting) {
  const uint64_t live_before = iobuf_stats().segments_live();
  {
    SegRef seg = IoSegment::alloc(64);
    EXPECT_EQ(seg->capacity(), 64u);
    EXPECT_EQ(seg->size(), 0u);
    EXPECT_EQ(seg->refs(), 1u);
    EXPECT_EQ(seg->append("hello", 5), 5u);
    EXPECT_EQ(seg->size(), 5u);

    SegRef other = seg;  // copy retains
    EXPECT_EQ(seg->refs(), 2u);
    other.reset();
    EXPECT_EQ(seg->refs(), 1u);
    EXPECT_EQ(iobuf_stats().segments_live(), live_before + 1);
  }
  EXPECT_EQ(iobuf_stats().segments_live(), live_before);
}

TEST(IoSegment, AppendStopsAtCapacity) {
  SegRef seg = IoSegment::alloc(4);
  EXPECT_EQ(seg->append("abcdef", 6), 4u);
  EXPECT_EQ(seg->avail(), 0u);
  EXPECT_EQ(std::string(seg->data(), seg->size()), "abcd");
}

TEST(IoChain, AppendCopyAndToString) {
  IoChain c;
  c.append_copy(std::string_view{"hello "});
  c.append_copy(std::string_view{"world"});
  EXPECT_EQ(c.size(), 11u);
  EXPECT_EQ(c.to_string(), "hello world");
  // Contiguous copies into the same writable tail stay one slice.
  EXPECT_EQ(c.num_slices(), 1u);
}

TEST(IoChain, AppendRefSharesBytesWithoutCopy) {
  SegRef seg = IoSegment::alloc(64);
  seg->append("abcdefgh", 8);

  const uint64_t copied_before = iobuf_stats().bytes_copied;
  IoChain a;
  a.append_ref(seg, 0, 4);
  a.append_ref(seg, 4, 4);  // contiguous: coalesces
  EXPECT_EQ(a.num_slices(), 1u);
  EXPECT_EQ(a.to_string().substr(0, 8), "abcdefgh");
  EXPECT_EQ(iobuf_stats().bytes_copied, copied_before);  // no memcpy
  EXPECT_EQ(seg->refs(), 2u);  // seg + the chain's coalesced slice
}

TEST(IoChain, RefAppendKeepsSegmentAliveAfterSourceDrops) {
  IoChain dst;
  {
    SegRef seg = IoSegment::alloc(16);
    seg->append("payload", 7);
    dst.append_ref(seg, 0, 7);
  }  // source handle gone; chain still owns the bytes
  EXPECT_EQ(dst.to_string(), "payload");
}

TEST(IoChain, SharedTailIsNotWritable) {
  // Writing into a segment another chain can see would corrupt shared
  // bytes; append_copy must allocate a fresh segment instead.
  IoChain a;
  a.append_copy(std::string_view{"aaaa"});
  IoChain b;
  b.append_ref(a.slices()[0]);
  a.append_copy(std::string_view{"bbbb"});  // tail shared with b → new seg
  EXPECT_EQ(a.to_string(), "aaaabbbb");
  EXPECT_EQ(b.to_string(), "aaaa");  // b unchanged
  EXPECT_EQ(a.num_slices(), 2u);
}

TEST(IoChain, ConsumeAdvancesAcrossSlices) {
  IoChain c;
  SegRef s1 = IoSegment::alloc(8);
  s1->append("0123", 4);
  SegRef s2 = IoSegment::alloc(8);
  s2->append("4567", 4);
  c.append_ref(s1, 0, 4);
  c.append_ref(s2, 0, 4);
  c.consume(2);
  EXPECT_EQ(c.to_string(), "234567");
  c.consume(3);
  EXPECT_EQ(c.to_string(), "567");
  c.consume(3);
  EXPECT_TRUE(c.empty());
}

TEST(IoChain, CopyOutWindow) {
  IoChain c;
  c.append_copy(std::string_view{"abcdefghij"});
  char buf[4];
  c.copy_out(3, 4, buf);
  EXPECT_EQ(std::string(buf, 4), "defg");
}

// `len` bytes that vary at every position (no 26- or 32-periodic runs).
std::string varied(size_t len) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) s[i] = static_cast<char>(i * 131 + 7);
  return s;
}

// Appends `piece` by reference from a fresh segment, at a nonzero offset
// so slices never start at their segment's first byte.
void append_piece(IoChain& c, std::string_view piece) {
  SegRef seg = IoSegment::alloc(static_cast<uint32_t>(piece.size()) + 3);
  seg->append("pad", 3);
  seg->append(piece.data(), static_cast<uint32_t>(piece.size()));
  c.append_ref(seg, 3, static_cast<uint32_t>(piece.size()));
}

TEST(Digest, MatchesXxHash64KnownAnswers) {
  // Published XXH64 values (seed 0): the tail-only path and, at 39
  // bytes, the four lanes plus a 7-byte tail.
  EXPECT_EQ(digest_bytes(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(digest_bytes("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(digest_bytes("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(digest_bytes("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
}

TEST(Digest, ChainEqualsFlatAtEveryTwoWaySplit) {
  for (size_t len = 0; len <= 130; ++len) {
    const std::string flat = varied(len);
    const uint64_t want = digest_bytes(flat, 5);
    for (size_t cut = 0; cut <= len; ++cut) {
      SCOPED_TRACE(::testing::Message() << "len " << len << " cut " << cut);
      const std::string_view v(flat);
      IoChain by_ref;
      append_piece(by_ref, v.substr(0, cut));
      append_piece(by_ref, v.substr(cut));
      ASSERT_EQ(by_ref.num_slices(), (cut > 0) + (cut < len));
      ASSERT_EQ(by_ref.digest(5), want);

      IoChain by_copy;
      by_copy.append_copy(v.substr(0, cut));
      by_copy.append_copy(v.substr(cut));
      ASSERT_EQ(by_copy.digest(5), want);
    }
  }
}

TEST(Digest, ChainEqualsFlatAtRandomKWaySplits) {
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t len = rng() % 600;
    const std::string flat = varied(len);
    std::vector<size_t> cuts{0, len};
    for (size_t k = rng() % 48; k > 0; --k) cuts.push_back(rng() % (len + 1));
    std::sort(cuts.begin(), cuts.end());
    IoChain c;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      append_piece(c, std::string_view(flat).substr(cuts[i],
                                                    cuts[i + 1] - cuts[i]));
    }
    ASSERT_EQ(c.size(), len);
    ASSERT_EQ(c.digest(trial), digest_bytes(flat, trial))
        << "trial " << trial << " len " << len;
  }
}

TEST(Digest, EverySingleByteChangeMovesIt) {
  const std::string base = varied(97);
  std::set<uint64_t> seen{digest_bytes(base)};
  for (size_t i = 0; i < base.size(); ++i) {
    for (const int flip : {0x01, 0x80}) {
      std::string s = base;
      s[i] = static_cast<char>(s[i] ^ flip);
      EXPECT_TRUE(seen.insert(digest_bytes(s)).second)
          << "byte " << i << " flip " << flip;
    }
  }
}

TEST(Digest, SwappingTwoWordsMovesIt) {
  // Sixteen distinct 8-byte words: four 32-byte stripes.
  const std::string base = varied(128);
  const uint64_t want = digest_bytes(base);
  int within = 0, across = 0;
  for (size_t i = 0; i < 16; ++i) {
    for (size_t j = i + 1; j < 16; ++j) {
      std::string s = base;
      std::swap_ranges(s.begin() + 8 * i, s.begin() + 8 * i + 8,
                       s.begin() + 8 * j);
      ASSERT_NE(s, base);
      EXPECT_NE(digest_bytes(s), want) << "words " << i << ", " << j;
      ++(i / 4 == j / 4 ? within : across);
    }
  }
  EXPECT_EQ(within, 24);
  EXPECT_EQ(across, 96);
}

TEST(Digest, TrailingZeroMovesItThroughTheLengthFold) {
  for (const size_t len : {0, 1, 7, 8, 31, 32, 33, 64}) {
    const std::string s = varied(len);
    EXPECT_NE(digest_bytes(s + '\0'), digest_bytes(s)) << "len " << len;
  }
}

TEST(Digest, ChainingIsOrderSensitive) {
  const std::string a = "GET /a HTTP/1.1\r\n\r\n";
  const std::string b = "GET /b HTTP/1.1\r\n\r\n";
  EXPECT_NE(digest_bytes(b, digest_bytes(a)), digest_bytes(a, digest_bytes(b)));
}

TEST(IoChain, AppendingAChainToItselfDoublesIt) {
  // Each append grows slices_ while reading the same chain's slices; the
  // loops must not hold iterators or references across a reallocation.
  for (const bool by_ref : {true, false}) {
    SCOPED_TRACE(by_ref ? "by ref" : "by copy");
    IoChain c;
    std::string want;
    // Eight slices fill the vector's capacity, so either append reallocates.
    for (int i = 0; i < 8; ++i) {
      const std::string piece = varied(10 + i);
      append_piece(c, piece);
      want += piece;
    }
    c.append(c, by_ref);
    want += want;
    EXPECT_EQ(c.to_string(), want);
    EXPECT_EQ(c.size(), want.size());
    EXPECT_EQ(c.digest(), digest_bytes(want));
  }
}

TEST(IoChain, StatsAccounting) {
  iobuf_stats().reset();
  IoChain c;
  c.append_copy(std::string_view{"12345"});
  SegRef seg = IoSegment::alloc(16);
  seg->append("abc", 3);
  c.append_ref(seg, 0, 3);
  EXPECT_EQ(iobuf_stats().bytes_copied, 5u);
  EXPECT_EQ(iobuf_stats().bytes_referenced, 3u);
  EXPECT_GE(iobuf_stats().segments_allocated, 2u);
}

}  // namespace
}  // namespace hermes::netsim
