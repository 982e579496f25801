public class K05 {
    private static int counter;
    private final String label;

    static {
        counter = 0;
    }

    public K05() {
        this("none");
    }

    public K05(String label) {
        this.label = label;
    }

    public String getLabel() {
        return label;
    }

    public static int total(int... xs) {
        int sum = 0;
        for (int x : xs) {
            sum = sum + x;
        }
        return sum;
    }

    protected int scale(int x) {
        return x * 2;
    }

    protected int scale(int x, int factor) {
        return x * factor;
    }
}
