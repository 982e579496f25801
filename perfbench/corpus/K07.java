final class Registry {
    private static Registry instance;

    private Registry() {
    }

    static Registry get() {
        return instance;
    }

    enum Level {
        LOW, HIGH
    }

    class Entry {
        final int id = 0;
    }
}
