abstract class Shape {
    abstract double area();

    double describe() {
        return area();
    }
}

class Circle extends Shape {
    double radius;

    @Override
    double area() {
        return 3.14 * radius * radius;
    }

    double widen(Object o) {
        Shape s = (Shape) o;
        return super.describe() + s.area();
    }
}
