class BadInputException extends Exception {
    BadInputException(String msg) {
        super(msg);
    }
}

class K11 {
    void f(java.io.Reader r) throws BadInputException {
        try {
            g();
        } catch (IllegalStateException e) {
            throw new BadInputException("state");
        }
        try (java.io.Reader held = r) {
            g();
        } catch (RuntimeException | java.io.IOException e) {
            g();
        } finally {
            assert r != null;
        }
    }

    void g() {
    }
}
