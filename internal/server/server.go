// Package server implements the origin: it serves the (optionally
// VOXEL-enriched) DASH manifest and the per-representation media objects
// over the HTTP-over-QUIC* shim, honoring range requests and the
// x-voxel-unreliable header (§4.2). Media bytes are opaque to the
// experiments, so representations are served as zero objects of the exact
// segment-tiled sizes.
package server

import (
	"fmt"
	"strconv"
	"strings"

	"voxel/internal/dash"
	"voxel/internal/httpsim"
	"voxel/internal/quic"
)

// ManifestPath is the manifest's URL path.
const ManifestPath = "/manifest.mpd"

// VideoPath returns the URL path of a representation's media object.
func VideoPath(q int) string { return fmt.Sprintf("/video/Q%d", q) }

// VideoServer serves one title.
type VideoServer struct {
	HTTP     *httpsim.Server
	manifest *dash.Manifest
	mpd      []byte
}

// New builds the server on a connection. opts.VoxelUnaware turns off
// unreliable delivery (the compatibility case).
func New(conn *quic.Conn, m *dash.Manifest, opts httpsim.ServerOptions) (*VideoServer, error) {
	mpd, err := m.MPD()
	if err != nil {
		return nil, err
	}
	vs := &VideoServer{manifest: m, mpd: mpd}
	vs.HTTP = httpsim.NewServer(conn, httpsim.HandlerFunc(vs.resolve), opts)
	return vs, nil
}

func (vs *VideoServer) resolve(path string) (httpsim.Object, error) {
	if path == ManifestPath {
		return httpsim.BytesObject(vs.mpd), nil
	}
	if q, ok := strings.CutPrefix(path, "/video/Q"); ok {
		qi, err := strconv.Atoi(q)
		if err != nil || qi < 0 || qi >= len(vs.manifest.Reps) {
			return nil, fmt.Errorf("server: bad representation %q", path)
		}
		rep := vs.manifest.Reps[qi]
		last := rep.Segments[len(rep.Segments)-1]
		return httpsim.ZeroObject(last.MediaRange[1]), nil
	}
	return nil, fmt.Errorf("server: not found: %q", path)
}
