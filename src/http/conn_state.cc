#include "http/conn_state.h"

#include <algorithm>
#include <string>

namespace hermes::http {

ConnState::ConnState() : ConnState(Config{}) {}

ConnState::ConnState(const Config& cfg) : cfg_(cfg) {
  parser_.set_body_capture(cfg_.capture_body);
}

void ConnState::on_client_data(const netsim::IoSlice& slice) {
  if (slice.len == 0) return;
  stats_.bytes_in += slice.len;
  in_q_.push_back(slice);
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
  size_t done = 0;  // slices fully consumed by this call
  while (done < in_q_.size() && !parser_.failed() && !saw_close_ &&
         ready_len_ < cfg_.max_pipeline) {
    netsim::IoSlice& front = in_q_[done];
    const std::string_view view =
        front.view().substr(in_q_off_, front.len - in_q_off_);
    // In zero-copy mode the fed bytes are retained (the wire chain below
    // references the same segment), so the parser may borrow views.
    const size_t consumed = parser_.feed(view, /*stable=*/cfg_.zero_copy);

    if (consumed > 0) {
      if (cfg_.zero_copy) {
        cur_wire_.append_ref(front.seg,
                             front.off + static_cast<uint32_t>(in_q_off_),
                             static_cast<uint32_t>(consumed));
        stats_.forward_bytes_referenced += consumed;
      } else {
        cur_wire_.append_copy(view.substr(0, consumed));
        stats_.forward_bytes_copied += consumed;
      }
      in_q_off_ += consumed;
      if (in_q_off_ == front.len) {
        ++done;
        in_q_off_ = 0;
      }
    }

    if (parser_.has_request()) {
      Request r = parser_.take();
      saw_close_ = !r.keep_alive();
      ++stats_.requests;
      push_ready(Ready{std::move(r), std::move(cur_wire_)});
      cur_wire_ = netsim::IoChain{};
      continue;
    }
    if (consumed == 0) break;  // need more data (or backpressured)
  }
  in_q_.erase(in_q_.begin(),
              in_q_.begin() + static_cast<std::ptrdiff_t>(done));
}

void ConnState::push_ready(Ready r) {
  if (ready_len_ < ready_.size()) {
    ready_[(ready_head_ + ready_len_) % ready_.size()] = std::move(r);
  } else {
    // Every slot is live: unroll the ring so the new slot goes at the
    // back, growing geometrically but never past max_pipeline slots.
    std::rotate(ready_.begin(),
                ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_),
                ready_.end());
    ready_head_ = 0;
    if (ready_.size() == ready_.capacity()) {
      ready_.reserve(std::min<size_t>(
          std::max<size_t>(1, 2 * ready_.size()), cfg_.max_pipeline));
    }
    ready_.push_back(std::move(r));
  }
  ++ready_len_;
}

std::optional<ConnState::Ready> ConnState::pop_ready() {
  if (ready_len_ == 0) return std::nullopt;
  std::optional<Ready> out{std::move(ready_[ready_head_])};
  ready_head_ = (ready_head_ + 1) % ready_.size();
  --ready_len_;
  pump();  // backpressure may have paused parsing
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

size_t ConnState::buffered_bytes() const {
  size_t n = 0;
  for (const auto& s : in_q_) n += s.len;
  return n - in_q_off_;
}

}  // namespace hermes::http
