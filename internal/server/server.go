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
	"voxel/internal/video"
)

// ManifestPath is the manifest's URL path.
const ManifestPath = "/manifest.mpd"

// VideoPath returns the URL path of a representation's media object.
func VideoPath(q int) string {
	if q >= 0 && q < len(videoPaths) {
		return videoPaths[q]
	}
	return fmt.Sprintf("/video/Q%d", q)
}

// videoPaths holds the path of every quality of the ladder, so that a request
// names one without formatting it.
var videoPaths = func() (paths [video.NumQualities]string) {
	for q := range paths {
		paths[q] = fmt.Sprintf("/video/Q%d", q)
	}
	return paths
}()

// VideoServer serves one title. It hands out prebuilt objects: resolving a
// path boxes a pointer to one, which allocates nothing.
type VideoServer struct {
	HTTP  *httpsim.Server
	mpd   httpsim.BytesObject
	media []httpsim.ZeroObject // per representation: its segment-tiled size
}

// New builds the server on a connection. opts.VoxelUnaware turns off
// unreliable delivery (the compatibility case).
func New(conn *quic.Conn, m *dash.Manifest, opts httpsim.ServerOptions) (*VideoServer, error) {
	mpd, err := m.MPD()
	if err != nil {
		return nil, err
	}
	vs := &VideoServer{mpd: mpd, media: make([]httpsim.ZeroObject, len(m.Reps))}
	for q, rep := range m.Reps {
		vs.media[q] = httpsim.ZeroObject(rep.Segments[len(rep.Segments)-1].MediaRange[1])
	}
	vs.HTTP = httpsim.NewServer(conn, httpsim.HandlerFunc(vs.resolve), opts)
	return vs, nil
}

func (vs *VideoServer) resolve(path string) (httpsim.Object, error) {
	if path == ManifestPath {
		return &vs.mpd, nil
	}
	if q, ok := strings.CutPrefix(path, "/video/Q"); ok {
		qi, err := strconv.Atoi(q)
		if err != nil || qi < 0 || qi >= len(vs.media) {
			return nil, fmt.Errorf("server: bad representation %q", path)
		}
		return &vs.media[qi], nil
	}
	return nil, fmt.Errorf("server: not found: %q", path)
}
