//! Regenerates Fig. 5b: worst-case process freeze time with iterative,
//! collective and incremental collective socket migration, 16…1024
//! connections.

fn main() {
    let conns = dvelm_bench::connections_from_args("fig5b_freeze_time");
    let cells = dvelm_bench::freeze_sweep(&conns);
    let out = dvelm_bench::fig5b(&cells, &conns);
    dvelm_bench::emit("fig5b_freeze_time", &out);
}
