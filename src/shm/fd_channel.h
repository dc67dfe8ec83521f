// Unix-domain socket pair that can pass file descriptors (SCM_RIGHTS).
//
// This is the live-demo substitute for the in-kernel eBPF dispatch hop: an
// acceptor process accept()s connections and ships each accepted fd to the
// worker chosen by the (identical) Hermes dispatch program. The selection
// logic is shared with the kernel path; only the trampoline differs
// (documented in DESIGN.md §2).
#pragma once

#include <optional>
#include <utility>

namespace hermes::shm {

class FdChannel {
 public:
  FdChannel() = default;

  // A connected pair; typical use: create before fork(), parent keeps
  // first(), child keeps second().
  static std::pair<FdChannel, FdChannel> make_pair();

  ~FdChannel();
  FdChannel(FdChannel&& o) noexcept;
  FdChannel& operator=(FdChannel&& o) noexcept;
  FdChannel(const FdChannel&) = delete;
  FdChannel& operator=(const FdChannel&) = delete;

  bool valid() const { return fd_ >= 0; }
  int raw_fd() const { return fd_; }
  void close();

  // Send `fd` plus a small out-of-band tag byte. Returns false on error.
  bool send_fd(int fd, unsigned char tag = 0);

  // Blocking receive; returns {fd, tag} or nullopt on EOF/error.
  std::optional<std::pair<int, unsigned char>> recv_fd();

 private:
  explicit FdChannel(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace hermes::shm
