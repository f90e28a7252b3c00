//! Error types for engine operations.

/// Convenience alias used across the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Errors surfaced by engine jobs and dataset operations.
#[derive(Debug)]
pub enum EngineError {
    /// A task closure panicked on an executor thread, or an injected fault
    /// killed it. The panic payload is rendered to a string when it is a
    /// `&str`/`String`, otherwise a placeholder is used.
    TaskPanicked {
        /// Stage name the task belonged to (empty for raw pool batches,
        /// which have no stage context).
        stage: String,
        /// Index of the task within its stage (the lowest, if several
        /// failed).
        task: usize,
        /// Rendered panic message.
        message: String,
    },
    /// The executor pool shut down while a job was in flight.
    PoolShutDown,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::TaskPanicked {
                stage,
                task,
                message,
            } => {
                if stage.is_empty() {
                    write!(f, "task {task} panicked: {message}")
                } else {
                    write!(f, "stage '{stage}': task {task} panicked: {message}")
                }
            }
            EngineError::PoolShutDown => write!(f, "executor pool shut down"),
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
            message: "x".into(),
        };
        assert_eq!(e.to_string(), "task 3 panicked: x");
        let e = EngineError::TaskPanicked {
            stage: "update".into(),
            task: 3,
            message: "x".into(),
        };
        assert_eq!(e.to_string(), "stage 'update': task 3 panicked: x");
        assert_eq!(
            EngineError::PoolShutDown.to_string(),
            "executor pool shut down"
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
