package wire

// RoutePatterns lists the "METHOD /path" patterns s registers, in table order.
func RoutePatterns(s *Server) []string {
	var out []string
	for _, rt := range s.routes() {
		out = append(out, rt.pattern)
	}
	return out
}
