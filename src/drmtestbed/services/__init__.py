"""The four weak streaming services, one module each."""
