package server

import wirep "adminrefine/internal/wire"

// WireConfig hands the binary listener (cmd/rbacd -wire-addr, the bench
// stack) the request core this facade serves from — two sockets, one node.
// A session created over HTTP checks over the wire and vice versa; a shed on
// either plane shows up in /stats; a promotion fences both planes at once.
func (s *Server) WireConfig() wirep.Config { return wirep.Config{Core: s.core} }
