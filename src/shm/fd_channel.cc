#include "shm/fd_channel.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

namespace hermes::shm {

std::pair<FdChannel, FdChannel> FdChannel::make_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "socketpair");
  }
  return {FdChannel{fds[0]}, FdChannel{fds[1]}};
}

FdChannel::~FdChannel() { close(); }

FdChannel::FdChannel(FdChannel&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }

FdChannel& FdChannel::operator=(FdChannel&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void FdChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool FdChannel::send_fd(int fd, unsigned char tag) {
  char data = static_cast<char>(tag);
  struct iovec iov {};
  iov.iov_base = &data;
  iov.iov_len = 1;

  alignas(struct cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))] = {};
  struct msghdr msg {};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = ctrl;
  msg.msg_controllen = sizeof(ctrl);

  struct cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cmsg), &fd, sizeof(int));

  ssize_t n;
  do {
    n = ::sendmsg(fd_, &msg, 0);
  } while (n < 0 && errno == EINTR);
  return n == 1;
}

std::optional<std::pair<int, unsigned char>> FdChannel::recv_fd() {
  char data = 0;
  struct iovec iov {};
  iov.iov_base = &data;
  iov.iov_len = 1;

  alignas(struct cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))] = {};
  struct msghdr msg {};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = ctrl;
  msg.msg_controllen = sizeof(ctrl);

  ssize_t n;
  do {
    n = ::recvmsg(fd_, &msg, 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return std::nullopt;

  for (struct cmsghdr* cmsg = CMSG_FIRSTHDR(&msg); cmsg != nullptr;
       cmsg = CMSG_NXTHDR(&msg, cmsg)) {
    if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS) {
      int fd;
      std::memcpy(&fd, CMSG_DATA(cmsg), sizeof(int));
      return std::make_pair(fd, static_cast<unsigned char>(data));
    }
  }
  return std::nullopt;  // message without an fd
}

}  // namespace hermes::shm
