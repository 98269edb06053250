"""Reference implementations the production paths are checked against."""
