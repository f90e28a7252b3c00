//! Error types for engine operations.

/// Convenience alias used across the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Errors surfaced by engine jobs and dataset operations.
#[derive(Debug)]
pub enum EngineError {
    /// A task closure panicked on an executor thread (for retried stages:
    /// panicked on **every** allowed attempt). The panic payload is
    /// rendered to a string when it is a `&str`/`String`, otherwise a
    /// placeholder is used.
    TaskPanicked {
        /// Stage name the task belonged to (empty for raw pool batches,
        /// which have no stage context).
        stage: String,
        /// Index of the task within its job.
        task: usize,
        /// Attempts consumed before giving up (1 = no retry).
        attempts: usize,
        /// Rendered panic message of the last failed attempt.
        message: String,
    },
    /// The executor pool shut down while a job was in flight.
    PoolShutDown,
    /// An operation required a non-empty dataset but the dataset was empty.
    EmptyDataset,
    /// A caller-supplied parameter was invalid (e.g. zero partitions).
    InvalidArgument(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::TaskPanicked {
                stage,
                task,
                attempts,
                message,
            } => {
                if stage.is_empty() {
                    write!(
                        f,
                        "task {task} panicked after {attempts} attempt(s): {message}"
                    )
                } else {
                    write!(
                        f,
                        "stage '{stage}': task {task} panicked after {attempts} attempt(s): {message}"
                    )
                }
            }
            EngineError::PoolShutDown => write!(f, "executor pool shut down"),
            EngineError::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            EngineError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Render a panic payload into a readable message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = EngineError::TaskPanicked {
            stage: String::new(),
            task: 3,
            attempts: 1,
            message: "x".into(),
        };
        assert_eq!(e.to_string(), "task 3 panicked after 1 attempt(s): x");
        let e = EngineError::TaskPanicked {
            stage: "update".into(),
            task: 3,
            attempts: 4,
            message: "x".into(),
        };
        assert_eq!(
            e.to_string(),
            "stage 'update': task 3 panicked after 4 attempt(s): x"
        );
        assert_eq!(
            EngineError::PoolShutDown.to_string(),
            "executor pool shut down"
        );
        assert_eq!(
            EngineError::EmptyDataset.to_string(),
            "operation requires a non-empty dataset"
        );
        assert_eq!(
            EngineError::InvalidArgument("bad".into()).to_string(),
            "invalid argument: bad"
        );
    }

    #[test]
    fn panic_message_variants() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(panic_message(boxed.as_ref()), "static");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(boxed.as_ref()), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(17u8);
        assert_eq!(panic_message(boxed.as_ref()), "<non-string panic payload>");
    }
}
