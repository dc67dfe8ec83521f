// One application-layer request, as the workload generator makes it, the
// LB device delivers it and a worker queues and serves it (a worker keeps
// its requests in one arrival-ordered queue; a new connection is no
// Request but an accept on a listening socket). Request::conn is the
// connection's slab handle (netsim::ConnId); LbDevice and DataPlane find a
// connection's state from it through their netsim::ConnTables.
#pragma once

#include <cstdint>

#include "netsim/conn_slab.h"
#include "util/types.h"

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

}  // namespace hermes::sim
