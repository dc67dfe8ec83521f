// Request and per-connection workload state shared between the workload
// generator, the LB device, and workers. Request::conn is the connection's
// slab handle (netsim::ConnId); LbDevice and DataPlane find a connection's
// state from it through their netsim::ConnTables.
#pragma once

#include <cstdint>

#include "netsim/conn_slab.h"
#include "util/types.h"

namespace hermes::netsim {
class ListeningSocket;  // netsim/netstack.h
}

namespace hermes::sim {

using RequestId = uint64_t;

// One application-layer request to be processed by a worker.
struct Request {
  RequestId id = 0;
  netsim::ConnId conn = 0;
  TenantId tenant = 0;
  SimTime arrival{};     // when it reached the kernel (SYN time for the
                         // first request of a connection)
  SimTime cost{};        // CPU time the worker will spend on it
  uint64_t bytes = 0;    // wire size; the data plane synthesizes a request
                         // of about this size and a response body of it
  bool is_poison = false;  // hang-inducing (stuck edge-triggered read)
};

// What a worker pulled out of epoll_wait: either a new-connection event on
// a listening socket or a request on an established connection.
struct WorkerEvent {
  enum class Kind : uint8_t { Accept, Request };
  Kind kind = Kind::Request;
  netsim::ListeningSocket* socket = nullptr;  // Accept
  Request request{};                          // Request
};

}  // namespace hermes::sim
