//! The sweep worker subprocess: serves [`digg_sim::supervisor`]
//! `CellRequest` frames over stdin/stdout until the supervisor closes
//! the pipe. Spawned by `run_sweep_supervised_lenient` — one worker per grid
//! shard — and re-spawned after a death, at which point it resumes the
//! interrupted cell from its last checkpoint.

fn main() {
    std::process::exit(digg_sim::supervisor::worker_main_stdio());
}
