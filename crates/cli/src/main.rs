//! `torus-xchg` — command-line driver for the torus-alltoall library.

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A failing command keeps what it wrote before the failure (`submit`'s
    // result line on a checksum mismatch); it is printed before the error.
    let mut out = String::new();
    let result = torus_xchg_cli::parse_args(&args)
        .and_then(|cmd| torus_xchg_cli::execute_into(cmd, &mut out));
    // `print!` panics if stdout goes away; piping into `head` must be a
    // clean exit, and any other write failure a plain error.
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: cannot write output: {e}");
            std::process::exit(1);
        }
        if result.is_ok() {
            std::process::exit(0);
        }
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
