//! `hsched` binary: thin shim over [`hsched_cli::run`].
//!
//! A panic on any thread is a bug, and stops the process: the default
//! report is printed, then the process aborts. A serving primary that
//! panics mid-epoch therefore dies instead of wedging on a poisoned lock;
//! its journal recovers what was durable, and a `--promote-on-loss`
//! standby takes over.

fn main() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        report(info);
        std::process::abort();
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match hsched_cli::run(&args) {
        Ok(output) => {
            // Success and failure paths emit exactly one trailing newline,
            // whatever the command printer produced.
            print!("{output}");
            if !output.ends_with('\n') {
                println!();
            }
        }
        Err(message) => {
            eprint!("{message}");
            if !message.ends_with('\n') {
                eprintln!();
            }
            // Typed failures (standby divergence, rejected resume) get
            // distinct codes; everything else is the generic 1.
            std::process::exit(hsched_cli::exit_code_for(&message));
        }
    }
}
