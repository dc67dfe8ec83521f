#include "http/conn_state.h"

#include <string>
#include <utility>
#include <vector>

namespace hermes::http {

namespace {

// Idle parsers of this thread. Only parsers handed back by pump() land
// here, so the list never outgrows the number lent at one time.
std::vector<std::unique_ptr<RequestParser>>& free_parsers() {
  thread_local std::vector<std::unique_ptr<RequestParser>> list;
  return list;
}

std::unique_ptr<RequestParser> lend_parser(bool capture_body) {
  auto& list = free_parsers();
  std::unique_ptr<RequestParser> p;
  if (list.empty()) {
    p = std::make_unique<RequestParser>();
  } else {
    p = std::move(list.back());
    list.pop_back();
  }
  p->set_body_capture(capture_body);
  return p;
}

}  // namespace

ConnState::ConnState() : ConnState(Config{}) {}

ConnState::ConnState(const Config& cfg) : cfg_(cfg) {}

void ConnState::on_client_data(const netsim::IoSlice& slice) {
  if (slice.len == 0) return;
  stats_.bytes_in += slice.len;
  in_.append_ref(slice);
  pump();
}

void ConnState::on_client_data(std::string_view flat) {
  while (!flat.empty()) {
    const uint32_t take =
        flat.size() < netsim::IoSegment::kDefaultCapacity
            ? static_cast<uint32_t>(flat.size())
            : netsim::IoSegment::kDefaultCapacity;
    netsim::SegRef seg = netsim::IoSegment::alloc(take);
    seg->append(flat.data(), take);
    on_client_data(netsim::IoSlice{std::move(seg), 0, take});
    flat.remove_prefix(take);
  }
}

void ConnState::pump() {
  while (!in_.empty() && !saw_close_ && !has_ready() && !failed()) {
    if (!parser_) parser_ = lend_parser(cfg_.capture_body);
    const netsim::IoSlice& front = in_.slices().front();
    // In zero-copy mode the fed bytes are retained (the wire chain below
    // references the same segment), so the parser may borrow views.
    const size_t consumed =
        parser_->feed(front.view(), /*stable=*/cfg_.zero_copy);
    if (consumed == 0) break;  // parse error
    if (cfg_.zero_copy) {
      cur_wire_.append_ref(front.seg, front.off,
                           static_cast<uint32_t>(consumed));
      stats_.forward_bytes_referenced += consumed;
    } else {
      cur_wire_.append_copy(front.view().substr(0, consumed));
      stats_.forward_bytes_copied += consumed;
    }
    in_.consume(consumed);
  }
  if (parser_ && parser_->idle()) {
    free_parsers().push_back(std::move(parser_));
  }
}

std::optional<ConnState::Ready> ConnState::pop_ready() {
  std::optional<Ready> out;  // the only return value, so it is elided
  if (!has_ready()) return out;
  out.emplace(parser_->take(), std::move(cur_wire_));
  saw_close_ = !out->request.keep_alive();
  ++stats_.requests;
  pump();
  return out;
}

netsim::IoChain ConnState::egress(const netsim::IoChain& encoded) {
  netsim::IoChain out;
  out.append(encoded, /*by_ref=*/cfg_.zero_copy);
  if (cfg_.zero_copy) {
    stats_.forward_bytes_referenced += encoded.size();
  } else {
    stats_.forward_bytes_copied += encoded.size();
  }
  stats_.bytes_out += encoded.size();
  ++stats_.responses;
  return out;
}

netsim::IoChain ConnState::encode(const Response& r) {
  const std::string s = r.serialize();
  netsim::IoChain c;
  c.append_copy(s);
  return c;
}

}  // namespace hermes::http
