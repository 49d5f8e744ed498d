//! Regenerates every measured figure of the paper in one go, sharing the
//! Fig. 5b/5c sweep. Pass connection counts as arguments to change the
//! sweep grid (default 16…1024).

fn main() {
    let conns = dvelm_bench::connections_from_args("all_figures");

    eprintln!("== Fig. 4 (OpenArena) ==");
    dvelm_bench::emit("fig4_openarena_delay", &dvelm_bench::fig4(24));

    eprintln!("== Fig. 5b/5c sweep ({conns:?}) ==");
    let cells = dvelm_bench::freeze_sweep(&conns);
    dvelm_bench::emit("fig5b_freeze_time", &dvelm_bench::fig5b(&cells, &conns));
    dvelm_bench::emit("fig5c_freeze_bytes", &dvelm_bench::fig5c(&cells, &conns));

    eprintln!("== Fig. 5d/5e/5f (900 s DVE) ==");
    let no_lb = dvelm_bench::run_dve(false);
    let lb = dvelm_bench::run_dve(true);
    dvelm_bench::emit("fig5e_cpu_no_lb", &dvelm_bench::fig5ef(&no_lb, false));
    dvelm_bench::emit("fig5f_cpu_lb", &dvelm_bench::fig5ef(&lb, true));
    dvelm_bench::emit("fig5d_proc_distribution", &dvelm_bench::fig5d(&lb));
}
