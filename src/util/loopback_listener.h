#ifndef UJOIN_UTIL_LOOPBACK_LISTENER_H_
#define UJOIN_UTIL_LOOPBACK_LISTENER_H_

#include <atomic>
#include <functional>
#include <string>

#include "util/status.h"

namespace ujoin {

/// \brief The socket core of the loopback servers (obs::ScrapeServer and
/// serve::SearchServer): a listening TCP socket on 127.0.0.1 and an accept
/// loop that watches a stop flag.
class LoopbackListener {
 public:
  LoopbackListener() = default;
  ~LoopbackListener() { Close(); }

  LoopbackListener(const LoopbackListener&) = delete;
  LoopbackListener& operator=(const LoopbackListener&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port, readable from
  /// port() afterwards) and listens with an accept queue of `backlog`.
  Status Listen(int port, int backlog);

  /// Closes the socket.  Idempotent; call once the accept loop returned.
  void Close();

  /// The bound port, valid after a successful Listen().
  int port() const { return port_; }

  /// Hands each accepted socket to `on_accept`, which owns it, until `stop`
  /// reads true.  Polls with a 100 ms timeout instead of blocking in
  /// accept: the tick is how a stop request gets the thread's attention
  /// without racing a close() against an accept() in flight.
  void AcceptUntil(const std::atomic<bool>& stop,
                   const std::function<void(int fd)>& on_accept) const;

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Sends all of `data` on socket `fd`, tolerating short writes.
/// MSG_NOSIGNAL turns a peer that hung up into an error return instead of
/// SIGPIPE.
void SendAll(int fd, const std::string& data);

}  // namespace ujoin

#endif  // UJOIN_UTIL_LOOPBACK_LISTENER_H_
