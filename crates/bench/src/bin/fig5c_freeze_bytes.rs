//! Regenerates Fig. 5c: socket data transferred during the freeze phase,
//! 16…1024 connections.

fn main() {
    let conns = dvelm_bench::connections_from_args("fig5c_freeze_bytes");
    let cells = dvelm_bench::freeze_sweep(&conns);
    let out = dvelm_bench::fig5c(&cells, &conns);
    dvelm_bench::emit("fig5c_freeze_bytes", &out);
}
