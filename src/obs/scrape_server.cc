#include "obs/scrape_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace ujoin {
namespace obs {

namespace {

std::string HttpResponse(const char* status_line, const char* content_type,
                         const std::string& body) {
  std::string r;
  r.reserve(body.size() + 128);
  r.append("HTTP/1.0 ");
  r.append(status_line);
  r.append("\r\nContent-Type: ");
  r.append(content_type);
  r.append("\r\nContent-Length: ");
  r.append(std::to_string(body.size()));
  r.append("\r\nConnection: close\r\n\r\n");
  r.append(body);
  return r;
}

}  // namespace

Status ScrapeServer::Start(int port) {
  UJOIN_RETURN_IF_ERROR(listener_.Listen(port, /*backlog=*/8));
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] {
    listener_.AcceptUntil(stop_, [this](int fd) {
      HandleConnection(fd);
      close(fd);
    });
  });
  return Status::OK();
}

void ScrapeServer::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  listener_.Close();
}

void ScrapeServer::UpdateMetrics(std::string text) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_text_ = std::move(text);
}

void ScrapeServer::UpdateDebugPage(std::string json) {
  std::lock_guard<std::mutex> lock(mu_);
  debug_text_ = std::move(json);
  debug_set_ = true;
}

void ScrapeServer::UpdateStallsPage(std::string json) {
  std::lock_guard<std::mutex> lock(mu_);
  stalls_text_ = std::move(json);
  stalls_set_ = true;
}

void ScrapeServer::SetHealthBody(std::string body) {
  std::lock_guard<std::mutex> lock(mu_);
  health_body_ = std::move(body);
}

void ScrapeServer::HandleConnection(int fd) {
  // A scrape request fits in one read in practice; loop until the header
  // terminator anyway, bounded by the buffer and a receive timeout so a
  // stalled peer cannot wedge the accept thread.
  timeval timeout{};
  timeout.tv_sec = 2;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  char buf[2048];
  size_t used = 0;
  while (used < sizeof(buf) - 1) {
    const ssize_t n = recv(fd, buf + used, sizeof(buf) - 1 - used, 0);
    if (n <= 0) break;
    used += static_cast<size_t>(n);
    buf[used] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr) {
      break;
    }
  }
  buf[used] = '\0';

  // Request line: METHOD SP PATH SP VERSION.
  std::string path;
  {
    const char* sp1 = std::strchr(buf, ' ');
    if (sp1 != nullptr) {
      const char* sp2 = std::strchr(sp1 + 1, ' ');
      if (sp2 != nullptr) path.assign(sp1 + 1, sp2);
    }
  }

  // Copy the page under the lock (held only for the copy), render outside.
  std::string body;
  const char* type = "application/json";
  bool found = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (path == "/metrics") {
      body = metrics_text_;
      type = "text/plain; version=0.0.4";
    } else if (path == "/healthz") {
      body = health_body_;
      if (body.empty() || body[0] != '{') type = "text/plain";
    } else if (path == "/debug/slow") {
      body = debug_text_;
      found = debug_set_;
    } else if (path == "/debug/stalls") {
      body = stalls_text_;
      found = stalls_set_;
    } else {
      found = false;
    }
  }
  const std::string response =
      found ? HttpResponse("200 OK", type, body)
            : HttpResponse("404 Not Found", "text/plain", "not found\n");
  SendAll(fd, response);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace ujoin
