//! `drtm-shell`: an interactive shell over a simulated DrTM+R cluster.
//!
//! ```text
//! drtm-shell                # interactive REPL on a terminal
//! drtm-shell script.drtm    # run a command file, then exit
//! ... | drtm-shell          # run piped commands, then exit
//! ```
//!
//! A script or pipe stops at its first failed command and exits
//! nonzero; the interactive REPL reports the error and carries on.
//! Output piped into a reader that closes early (`drtm-shell | head`)
//! ends the session quietly with status 0.

use std::io::{BufReader, IsTerminal, Write};

use drtm_cli::{output_failed, run_lines, Shell};

fn main() {
    let mut shell = Shell::new();
    drtm_base::shutdown::install();
    let mut out = std::io::stdout();

    let ok = match std::env::args().nth(1) {
        Some(path) => match std::fs::File::open(&path) {
            Ok(f) => run_lines(&mut shell, BufReader::new(f), &mut out, false),
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let interactive = std::io::stdin().is_terminal();
            if interactive {
                print_line(&mut out, "drtm-shell — type `help` for commands");
            }
            run_lines(&mut shell, std::io::stdin().lock(), &mut out, interactive)
        }
    };

    // Graceful SIGINT/SIGTERM: surface a final scrape of whatever
    // cluster was live so an interrupted session still reports.
    if drtm_base::shutdown::requested() {
        if let Some(scrape) = shell.final_scrape() {
            eprintln!("drtm-shell: interrupted — final stats:");
            print_line(&mut out, &scrape);
        }
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Writes one line to stdout; a failed write ends the session as
/// [`output_failed`] says.
fn print_line(out: &mut impl Write, text: &str) {
    if let Err(e) = writeln!(out, "{text}") {
        std::process::exit(if output_failed(&e) { 0 } else { 1 });
    }
}
