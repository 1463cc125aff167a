// The benchmark's span recorder (see bench.hpp).
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.hpp"

namespace pb {

struct Tracer::Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  // stack of open span indices
};

namespace {

std::mutex g_buffers_mu;
// Guarded by g_buffers_mu. Buffers live until exit so a thread's spans
// survive the thread.
std::vector<std::unique_ptr<Tracer::Buffer>>& buffers() {
  static std::vector<std::unique_ptr<Tracer::Buffer>> b;
  return b;
}

template <typename Fn>
void for_each_span(Fn&& fn) {
  std::lock_guard g(g_buffers_mu);
  for (const auto& b : buffers())
    for (const auto& s : b->spans) fn(s);
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* mine = nullptr;
  if (!mine) {
    std::lock_guard g(g_buffers_mu);
    auto b = std::make_unique<Buffer>();
    b->thread = static_cast<std::uint32_t>(buffers().size());
    mine = b.get();
    buffers().push_back(std::move(b));
  }
  return *mine;
}

Tracer::Scope Tracer::span(const char* name) {
  if (!on_) return Scope{};
  Buffer& b = local();
  Span s;
  s.name = name;
  s.thread = b.thread;
  s.parent = b.open.empty() ? -1 : static_cast<std::int64_t>(b.open.back());
  s.start_ns = now_ns();
  // Appending only from the owning thread; readers take the lock after the
  // run, when every writer has stopped.
  b.spans.push_back(s);
  b.open.push_back(b.spans.size() - 1);
  return Scope{this, b.spans.size() - 1};
}

void Tracer::close(std::size_t idx) {
  Buffer& b = local();
  b.spans[idx].end_ns = now_ns();
  if (!b.open.empty() && b.open.back() == idx) b.open.pop_back();
}

void Tracer::set_count(std::size_t idx, std::uint64_t n) {
  local().spans[idx].count = n;
}

Tracer::Scope::~Scope() {
  if (t_) t_->close(idx_);
}

void Tracer::Scope::set_count(std::uint64_t n) {
  if (t_) t_->set_count(idx_, n);
}

double Tracer::total_s(const std::string& name) const {
  double s = 0;
  for_each_span([&](const Span& sp) {
    if (name == sp.name) s += static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
  });
  return s;
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  std::vector<double> out;
  for_each_span([&](const Span& sp) {
    if (name == sp.name)
      out.push_back(static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9);
  });
  return out;
}

bool Tracer::write(const std::string& path, const remo::Json& meta) const {
  remo::Json doc = remo::Json::object();
  doc["schema"] = "perfbench-spans-1";
  doc["meta"] = meta;
  remo::Json spans = remo::Json::array();
  for_each_span([&](const Span& sp) {
    remo::Json j = remo::Json::object();
    j["name"] = sp.name;
    j["thread"] = sp.thread;
    j["start_ns"] = sp.start_ns;
    j["end_ns"] = sp.end_ns;
    j["parent"] = static_cast<long long>(sp.parent);
    j["count"] = sp.count;
    spans.push_back(std::move(j));
  });
  doc["spans"] = std::move(spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string text = doc.dump();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace pb
