//! The daemon under test and the one client connection that drives it.
//!
//! [`Daemon`] owns a spawned release `tarr-serve --tcp` process and kills
//! and reaps it on drop, so no exit path of the benchmark leaves it
//! running. [`Conn`] is the single client connection: `TCP_NODELAY` is set
//! and every request goes out in one `write`, so any stall a reply shows is
//! the daemon's.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a booting daemon may take before its port answers.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);
/// A reply slower than this fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// What `tarr-serve` prints to stderr once its listener is bound.
const LISTENING: &str = "tarr-serve: listening on ";

pub struct Daemon {
    child: Child,
    port: u16,
    /// Fires once the daemon reports its listener bound.
    ready: Receiver<()>,
    /// Copies the daemon's stderr to the log until the daemon exits.
    log: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start `tarr-serve` on a free loopback port with `workers` workers,
    /// persisting to `state_dir`; its stderr goes to `log`.
    pub fn spawn(bin: &Path, state_dir: &Path, workers: usize, log: &Path) -> io::Result<Daemon> {
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let mut file = File::create(log)?;
        let mut child = Command::new(bin)
            .arg("--tcp")
            .arg(format!("127.0.0.1:{port}"))
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--state-dir")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, ready) = mpsc::channel();
        let log = std::thread::spawn(move || {
            let mut tx = Some(tx);
            let mut reader = BufReader::new(stderr);
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                let _ = file.write_all(line.as_bytes());
                if line.starts_with(LISTENING) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(());
                    }
                }
                line.clear();
            }
        });
        Ok(Daemon {
            child,
            port,
            ready,
            log: Some(log),
        })
    }

    /// Connect once the daemon listens (it binds after booting its state).
    /// Waiting on its stderr rather than polling the port keeps the client
    /// off the CPU while the daemon boots, which takes about 2 ms cold.
    pub fn connect(&mut self) -> io::Result<Conn> {
        match self.ready.recv_timeout(BOOT_TIMEOUT) {
            Ok(()) => Conn::new(TcpStream::connect(("127.0.0.1", self.port))?),
            Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "tarr-serve did not start listening",
            )),
            Err(RecvTimeoutError::Disconnected) => {
                let status = self.child.wait()?;
                Err(io::Error::other(format!(
                    "tarr-serve exited during boot: {status}"
                )))
            }
        }
    }

    /// Peak resident set size (`VmHWM`) of the daemon, MiB.
    pub fn vm_hwm_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 20, stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            line: Vec::with_capacity(1 << 16),
        })
    }

    /// Send one request line (newline included) in one write.
    pub fn send(&mut self, line: &[u8]) -> io::Result<()> {
        self.stream.write_all(line)
    }

    /// The next reply line, newline stripped.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        self.line.clear();
        let n = self.reader.read_until(b'\n', &mut self.line)?;
        if n == 0 || self.line.last() != Some(&b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        self.line.pop();
        Ok(&self.line)
    }

    /// One lockstep round trip, reply as an owned string.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line.as_bytes())?;
        let reply = self.recv()?;
        String::from_utf8(reply.to_vec()).map_err(io::Error::other)
    }
}
