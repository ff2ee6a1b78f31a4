//! Regenerates every figure and experiment of the paper in one process:
//! the reproduction record (DESIGN.md §3) on stdout, the wall-clock
//! readings on stderr. Takes no arguments.

fn main() {
    let record = carta_bench::run_all();
    print!("{}", record.text);
    for line in &record.wall_clock {
        eprintln!("{line}");
    }
}
