//! The client-side handle for an admitted request.

use crate::ServeError;
use snappix::Prediction;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

/// A claim on one in-flight request: redeem it with [`wait`](Self::wait)
/// (or poll with [`try_wait`](Self::try_wait)) to get the clip's
/// [`Prediction`].
///
/// Tickets are `Send`, so a client can submit from one thread and wait
/// from another, and dropping a ticket simply abandons the result — the
/// server notices nothing and the answer is discarded on arrival.
#[derive(Debug)]
pub struct Ticket {
    receiver: Receiver<Result<Prediction, ServeError>>,
}

impl Ticket {
    pub(crate) fn new(receiver: Receiver<Result<Prediction, ServeError>>) -> Self {
        Ticket { receiver }
    }

    /// Blocks until the request is answered.
    ///
    /// # Errors
    ///
    /// Whatever fate the request met server-side
    /// ([`ServeError::DeadlineExpired`], [`ServeError::Inference`], ...),
    /// or [`ServeError::Disconnected`] when the worker died without
    /// answering.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.receiver
            .recv()
            .unwrap_or(Err(ServeError::Disconnected))
    }

    /// Blocks for at most `timeout`.
    ///
    /// Returns `Ok(None)` when the answer has not arrived yet (the
    /// ticket remains redeemable).
    ///
    /// # Errors
    ///
    /// Same as [`wait`](Self::wait).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Option<Prediction>, ServeError> {
        match self.receiver.recv_timeout(timeout) {
            Ok(Ok(prediction)) => Ok(Some(prediction)),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected),
        }
    }

    /// Checks for an answer without blocking.
    ///
    /// Returns `Ok(None)` while the request is still in flight.
    ///
    /// # Errors
    ///
    /// Same as [`wait`](Self::wait).
    pub fn try_wait(&self) -> Result<Option<Prediction>, ServeError> {
        match self.receiver.try_recv() {
            Ok(Ok(prediction)) => Ok(Some(prediction)),
            Ok(Err(e)) => Err(e),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ServeError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snappix_tensor::Tensor;
    use std::sync::mpsc::channel;

    fn prediction() -> Prediction {
        Prediction {
            label: 3,
            logits: Tensor::zeros(&[5]),
        }
    }

    #[test]
    fn wait_returns_the_answer() {
        let (tx, rx) = channel();
        let ticket = Ticket::new(rx);
        tx.send(Ok(prediction())).unwrap();
        assert_eq!(ticket.wait().unwrap().label, 3);
    }

    #[test]
    fn polling_distinguishes_pending_from_dead() {
        let (tx, rx) = channel();
        let ticket = Ticket::new(rx);
        assert_eq!(ticket.try_wait(), Ok(None), "still in flight");
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(1)),
            Ok(None),
            "still in flight after a bounded wait"
        );
        tx.send(Ok(prediction())).unwrap();
        assert_eq!(ticket.try_wait().unwrap().map(|p| p.label), Some(3));
        drop(tx);
        assert_eq!(ticket.try_wait(), Err(ServeError::Disconnected));
        assert_eq!(ticket.wait(), Err(ServeError::Disconnected));
    }

    #[test]
    fn server_side_errors_surface_through_wait() {
        let (tx, rx) = channel();
        let ticket = Ticket::new(rx);
        tx.send(Err(ServeError::ShuttingDown)).unwrap();
        assert_eq!(ticket.wait(), Err(ServeError::ShuttingDown));
    }
}
