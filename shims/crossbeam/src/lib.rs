//! Offline shim for the `crossbeam` crate.
//!
//! Provides [`channel::bounded`] MPMC channels with crossbeam's
//! disconnect semantics (send fails once all receivers are gone; recv
//! drains the buffer then fails once all senders are gone), built on
//! `Mutex` + `Condvar`. This is the exact surface the
//! streaming pipeline executor uses; throughput is more than adequate for
//! window-granularity hand-offs (a few messages per second).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        buf: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Sending half of a channel. Clonable (MPMC).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of a channel. Clonable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// A channel holding at most `cap` in-flight messages; `send` blocks
    /// while full. `cap` of zero is bumped to one (this shim does not
    /// implement rendezvous channels).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                buf: VecDeque::new(),
                cap: cap.max(1),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Block until there is room, then enqueue. Fails if every
        /// receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if st.buf.len() < st.cap {
                    st.buf.push_back(msg);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                st = self.shared.not_full.wait(st).unwrap();
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender is gone and the
        /// buffer is drained.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().unwrap();
            loop {
                if let Some(msg) = st.buf.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).unwrap();
            }
        }

        /// Blocking iterator that ends when the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 {
                self.shared.not_full.notify_all();
            }
        }
    }

    /// Borrowing blocking iterator over received messages.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn fifo_order() {
        let (tx, rx) = channel::bounded(10);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = channel::bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let handle = std::thread::spawn(move || {
            tx.send(3).unwrap(); // blocks until a recv frees a slot
            "sent"
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(handle.join().unwrap(), "sent");
    }

    #[test]
    fn recv_fails_after_senders_drop() {
        let (tx, rx) = channel::bounded::<u8>(4);
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_fails_after_receivers_drop() {
        let (tx, rx) = channel::bounded::<u8>(4);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn cross_thread_pipeline() {
        let (tx, rx) = channel::bounded(1);
        let producer = std::thread::spawn(move || {
            for i in 0..100u64 {
                tx.send(i).unwrap();
            }
        });
        let sum: u64 = rx.iter().sum();
        producer.join().unwrap();
        assert_eq!(sum, 4950);
    }
}
