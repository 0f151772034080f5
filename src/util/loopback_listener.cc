#include "util/loopback_listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>

namespace ujoin {

Status LoopbackListener::Listen(int port, int backlog) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IoError("socket() failed");
  const int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    // std::strerror may return a static buffer; workers share this process.
    const std::string reason = std::system_category().message(errno);
    Close();
    return Status::IoError("bind(127.0.0.1:" + std::to_string(port) +
                           ") failed: " + reason);
  }
  if (listen(fd_, backlog) != 0) {
    Close();
    return Status::IoError("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  port_ = getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0
              ? static_cast<int>(ntohs(bound.sin_port))
              : port;
  return Status::OK();
}

void LoopbackListener::Close() {
  if (fd_ < 0) return;
  close(fd_);
  fd_ = -1;
}

void LoopbackListener::AcceptUntil(
    const std::atomic<bool>& stop,
    const std::function<void(int fd)>& on_accept) const {
  while (!stop.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    if (poll(&pfd, 1, /*timeout_ms=*/100) <= 0) continue;
    const int fd = accept(fd_, nullptr, nullptr);
    if (fd >= 0) on_accept(fd);
  }
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace ujoin
