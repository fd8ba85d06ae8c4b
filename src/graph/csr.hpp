#pragma once
// graph::Graph is itself the frozen CSR arena; the old name stays for
// the end-to-end benchmark sources, which spell it. Nothing else
// includes this header.

#include "graph/graph.hpp"

namespace spider::graph {

using CsrGraph = Graph;

}  // namespace spider::graph
