package wire

// RoutePatterns lists the "METHOD /path" patterns s registers, in table order.
func RoutePatterns(s *Server) []string {
	var out []string
	for _, rt := range s.routes() {
		out = append(out, rt.pattern)
	}
	return out
}

// The server-side recognisers and the flush interval, for the external tests.
var (
	DecodePlaceRequest   = decodePlaceRequest
	DecodeReleaseRequest = decodeReleaseRequest
)

const EventFlushEvery = eventFlushEvery
