// POSIX shared memory region + SCM_RIGHTS fd channel.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>

#include "shm/fd_channel.h"
#include "shm/shm_region.h"

namespace hermes::shm {
namespace {

TEST(ShmRegionTest, AnonymousRegionIsZeroed) {
  auto r = ShmRegion::create_anonymous(4096);
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.size(), 4096u);
  const auto* p = static_cast<const uint8_t*>(r.data());
  for (size_t i = 0; i < 4096; i += 512) EXPECT_EQ(p[i], 0);
}

TEST(ShmRegionTest, AnonymousRegionSharedAcrossFork) {
  auto r = ShmRegion::create_anonymous(4096);
  auto* p = static_cast<volatile uint32_t*>(r.data());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    p[0] = 0xabcd1234;
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(p[0], 0xabcd1234u);
}

TEST(ShmRegionTest, NamedCreateOpenRoundTrip) {
  const std::string name = "/hermes_test_" + std::to_string(getpid());
  auto creator = ShmRegion::create(name, 8192);
  std::memcpy(creator.data(), "hello", 6);

  auto opener = ShmRegion::open(name, 8192);
  EXPECT_STREQ(static_cast<const char*>(opener.data()), "hello");
  // creator's destructor unlinks; opener's mapping stays valid.
}

TEST(ShmRegionTest, OpenMissingThrows) {
  EXPECT_THROW(ShmRegion::open("/hermes_definitely_missing_xyz", 64),
               std::system_error);
}

TEST(ShmRegionTest, MoveTransfersOwnership) {
  auto a = ShmRegion::create_anonymous(1024);
  void* addr = a.data();
  ShmRegion b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.data(), addr);
}

TEST(ShmRegionTest, CreateReplacesStaleRegion) {
  const std::string name = "/hermes_test_stale_" + std::to_string(getpid());
  auto first = ShmRegion::create(name, 1024);
  // A second create with the same name must succeed (crashed-run cleanup).
  auto second = ShmRegion::create(name, 2048);
  EXPECT_EQ(second.size(), 2048u);
}

TEST(FdChannelTest, PassesFdBetweenProcesses) {
  auto [parent_end, child_end] = FdChannel::make_pair();

  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    parent_end.close();
    auto got = child_end.recv_fd();
    if (!got) _exit(1);
    auto [fd, tag] = *got;
    if (tag != 7) _exit(2);
    // Write through the received descriptor.
    if (write(fd, "xyz", 3) != 3) _exit(3);
    close(fd);
    _exit(0);
  }
  child_end.close();
  ASSERT_TRUE(parent_end.send_fd(pipefd[1], /*tag=*/7));
  close(pipefd[1]);

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  char buf[4] = {};
  ASSERT_EQ(read(pipefd[0], buf, 3), 3);
  EXPECT_STREQ(buf, "xyz");
  close(pipefd[0]);
}

TEST(FdChannelTest, RecvOnClosedPeerReturnsNullopt) {
  auto [a, b] = FdChannel::make_pair();
  a.close();
  EXPECT_FALSE(b.recv_fd().has_value());
}

TEST(FdChannelTest, MoveSemantics) {
  auto [a, b] = FdChannel::make_pair();
  FdChannel c = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(c.valid());
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  EXPECT_TRUE(c.send_fd(pipefd[1], /*tag=*/9));
  const auto got = b.recv_fd();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, 9);
  close(got->first);
  close(pipefd[0]);
  close(pipefd[1]);
}

}  // namespace
}  // namespace hermes::shm
