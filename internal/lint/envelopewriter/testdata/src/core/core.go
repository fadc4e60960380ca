// Fixture for the envelopewriter analyzer, type-checked under the
// in-scope import path palaemon/internal/core. Exercises the three
// violation shapes (http.Error, http.NotFound, naked WriteHeader) and
// every exemption: blessed writer, ResponseWriter wrapper, bodyless
// constant status, and the suppression directive; plus the route-table
// rule: ServeMux registrations only inside mount.
package core

import "net/http"

// writeWireErr is a blessed writer: touching the status line directly is
// its job.
func writeWireErr(w http.ResponseWriter, status int, code, msg string) {
	w.WriteHeader(status)
	_, _ = w.Write([]byte(code + ": " + msg))
}

func handleBad(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "boom", http.StatusInternalServerError) // want `http.Error bypasses the wire error envelope`
}

func handleMissing(w http.ResponseWriter, r *http.Request) {
	http.NotFound(w, r) // want `http.NotFound answers net/http plain text`
}

func handleNaked(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusTeapot) // want `naked WriteHeader bypasses the envelope writers`
}

func handleVariableStatus(w http.ResponseWriter, status int) {
	w.WriteHeader(status) // want `naked WriteHeader bypasses the envelope writers`
}

func handleNotModified(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusNotModified) // 304 carries no body: no envelope to bypass
}

func handleGood(w http.ResponseWriter, r *http.Request) {
	writeWireErr(w, http.StatusForbidden, "forbidden", "client is not the creator")
}

// statusWriter is a ResponseWriter wrapper; forwarding WriteHeader is
// plumbing, not a handler answering a request.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.status = status
	sw.ResponseWriter.WriteHeader(status)
}

func handleLegacy(w http.ResponseWriter, r *http.Request) {
	//palaemon:allow envelopewriter -- fixture: pre-envelope legacy endpoint kept byte-identical for old probes
	http.Error(w, "legacy", http.StatusGone)
}

// mount is the one function allowed to register handlers.
func mount(mux *http.ServeMux) {
	mux.HandleFunc("/v2/good", handleGood)
	mux.Handle("/", http.HandlerFunc(handleGood))
}

func sideDoor(mux *http.ServeMux) {
	mux.HandleFunc("/debug", handleGood)             // want `ServeMux.HandleFunc outside mount bypasses the route table`
	mux.Handle("/raw", http.HandlerFunc(handleGood)) // want `ServeMux.Handle outside mount bypasses the route table`
}
